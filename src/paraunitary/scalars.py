"""Exact coefficient tower: rationals, cyclotomic numbers, and prime fields.

Every scalar carries a RingDescriptor and supports the involution ``conj``:
complex conjugation (zeta -> zeta^-1) on cyclotomics, the identity on
rationals and prime fields.  Values are immutable and arithmetic between
different descriptors is an error; use :func:`embed` to move values.

One value layout serves all three rings.  ``ExactScalar.value`` is
``(nums, den)``: a tuple of ``ring.degree`` ints over one int denominator,
so the element is ``sum(nums[i] * zeta^i) / den`` in the power basis (Q and
F_p have degree 1, so there it is ``nums[0] / den``).  The form is
canonical, and ``__eq__`` and ``__hash__`` compare ``value`` directly:

- Q and Q(zeta_N): ``den > 0`` and ``math.gcd(den, *nums) == 1``, so zero
  is ``((0, ..., 0), 1)``;
- F_p: ``den == 1`` and the numerator lies in ``[0, p)``.

:func:`scalar_from_ints` is the one constructor that brings ints to this
form, and every operation is one int computation on the layout followed by
it, which reduces mod p where the ring has a p.  Phi_N is monic in Z[x], so
a cyclotomic product is an integer convolution, a reduction and one gcd,
and a cyclotomic inverse is an extended Euclid over Z against Phi_N.  The
packed polynomials of ``laurent`` store the same numerators and
denominators and read ``value`` as it is; other modules go through
:meth:`ExactScalar.coeffs`, :meth:`ExactScalar.rational_value` and the
functions here.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from functools import lru_cache

from .errors import (
    IncompatibleRings,
    NoSquareRoot,
    NoSuchRoot,
    ParseError,
)

RATIONAL = "rational"
CYCLOTOMIC = "cyclotomic"
PRIME_FIELD = "prime_field"

# Ring size limits, checked before any table is built.  Q(zeta_N) needs Phi_N
# and a 2N-row power-basis table: one parse and one product take 0.05 s at
# N = 840 and N = 1024, and the tables of N = 2310 0.5 s.  The inverse sets
# the limit: a dense element (coordinates in [-3, 3]) takes 0.3 s at N = 840
# and 5.3 s at N = 1024.  Its cost follows phi(N), so the slow end is a prime
# conductor: 84 s at N = 1009 and 89 s at N = 1021.
# Primality of p is trial division: 2 ms at the limit, no answer in 20 s at
# 2^61 - 1.
MAX_CONDUCTOR = 1024
MAX_PRIME = 2**32 - 5  # the largest prime below 2^32


def input_int(value, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """An integer input field: a JSON integer or a string of at most 12
    decimal digits with an optional sign, within [lo, hi] where given.

    A bool, a float, any other value, or one out of range is a ParseError,
    raised before the value is used.
    """
    if isinstance(value, str):
        text = value.strip()
        if not re.fullmatch(r"[+-]?\d{1,12}", text):
            raise ParseError(f"bad {what} {value!r}")
        value = int(text)
    if type(value) is not int:
        raise ParseError(f"{what} must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ParseError(f"{what} {value} is less than {lo}")
    if hi is not None and value > hi:
        raise ParseError(f"{what} {value} exceeds the input limit {hi}")
    return value


def is_prime(n: int) -> bool:
    """Primality by trial division; adequate for the prime fields used here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = n
    m, d = n, 2
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result


def _check_ring(kind, conductor, p) -> None:
    """ValueError unless (kind, conductor, p) names one of Q, Q(zeta_N) or F_p
    within the input limits."""
    if kind == RATIONAL:
        if conductor is not None or p is not None:
            raise ValueError("rational ring takes no parameters")
    elif kind == CYCLOTOMIC:
        if conductor is None or conductor < 1:
            raise ValueError("cyclotomic ring needs conductor >= 1")
        if conductor > MAX_CONDUCTOR:
            raise ValueError(f"conductor {conductor} exceeds the limit {MAX_CONDUCTOR}")
        if p is not None:
            raise ValueError("cyclotomic ring takes no prime")
    elif kind == PRIME_FIELD:
        if p is not None and p > MAX_PRIME:
            raise ValueError(f"prime {p} exceeds the limit {MAX_PRIME}")
        if p is None or not is_prime(p):
            raise ValueError(f"prime field needs a prime, got {p}")
        if conductor is not None:
            raise ValueError("prime field takes no conductor")
    else:
        raise ValueError(f"unknown ring kind {kind!r}")


class RingDescriptor:
    """Identifies one of Q, Q(zeta_N), or F_p.

    Rings are interned: each (kind, conductor, p) has exactly one
    RingDescriptor object, which ``RingDescriptor(...)``, :func:`cyclotomic`,
    :func:`prime_field`, :meth:`from_json`, copy, deepcopy and pickle all
    return.  So ``==``, ``!=`` and ``hash`` are those of object identity.
    The parameters are checked when a ring is first made; an invalid ring
    raises ValueError on every call and is never stored.
    """

    __slots__ = ("kind", "conductor", "p")
    _interned: dict = {}

    def __new__(cls, kind: str, conductor: int | None = None, p: int | None = None):
        key = (kind, conductor, p)
        ring = cls._interned.get(key)
        if ring is None:
            _check_ring(kind, conductor, p)
            ring = object.__new__(cls)
            for name, value in zip(cls.__slots__, key):
                object.__setattr__(ring, name, value)
            ring = cls._interned.setdefault(key, ring)
        return ring

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("RingDescriptor is immutable")

    def __reduce__(self):
        # copy, deepcopy and unpickling call RingDescriptor(...) and so get the interned ring
        return RingDescriptor, (self.kind, self.conductor, self.p)

    def __repr__(self) -> str:
        return f"RingDescriptor(kind={self.kind!r}, conductor={self.conductor!r}, p={self.p!r})"

    @property
    def degree(self) -> int:
        """Dimension of the ring as a Q-vector space (1 for F_p residues)."""
        if self.kind == CYCLOTOMIC:
            return euler_phi(self.conductor)
        return 1

    def __str__(self) -> str:
        if self.kind == RATIONAL:
            return "Q"
        if self.kind == CYCLOTOMIC:
            return f"Q(zeta_{self.conductor})"
        return f"F_{self.p}"

    def to_json(self) -> dict:
        if self.kind == RATIONAL:
            return {"kind": RATIONAL}
        if self.kind == CYCLOTOMIC:
            return {"kind": CYCLOTOMIC, "conductor": self.conductor}
        return {"kind": PRIME_FIELD, "p": self.p}

    @staticmethod
    def from_json(obj) -> "RingDescriptor":
        """The ring of a JSON descriptor; anything malformed is a ParseError."""
        kind = obj.get("kind") if isinstance(obj, dict) else None
        try:
            if kind == RATIONAL:
                return QQ
            if kind == CYCLOTOMIC:
                return cyclotomic(input_int(obj["conductor"], "conductor"))
            if kind == PRIME_FIELD:
                return prime_field(input_int(obj["p"], "p"))
        except KeyError as exc:
            raise ParseError(f"bad ring descriptor {obj!r}: missing {exc}") from exc
        except (ParseError, ValueError) as exc:
            raise ParseError(f"bad ring descriptor {obj!r}: {exc}") from exc
        raise ParseError(f"bad ring descriptor {obj!r}")


QQ = RingDescriptor(RATIONAL)


def cyclotomic(conductor: int) -> RingDescriptor:
    return RingDescriptor(CYCLOTOMIC, conductor=conductor)


def prime_field(p: int) -> RingDescriptor:
    return RingDescriptor(PRIME_FIELD, p=p)


# --- cyclotomic polynomial machinery ------------------------------------

@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n in Z[x], ascending degree: x^n - 1 divided by
    Phi_d for every proper divisor d of n, each an exact division by a monic
    integer polynomial."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = cyclotomic_polynomial(d)
            m = len(den) - 1
            quot = [0] * (len(num) - m)
            for i in range(len(quot) - 1, -1, -1):
                c = quot[i] = num[i + m]
                if c:
                    for j, dj in enumerate(den):
                        num[i + j] -= c * dj
            assert not any(num[:m])
            num = quot
    return tuple(num)


@lru_cache(maxsize=None)
def _power_basis_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Reductions of zeta_n^k mod Phi_n for k = 0 .. 2n-1, as int phi(n)-vectors."""
    d = euler_phi(n)
    # x^d = -(phi_0 + phi_1 x + ... + phi_{d-1} x^{d-1})  (Phi_n is monic over Z)
    top = [-c for c in cyclotomic_polynomial(n)[:d]]
    rows: list[tuple[int, ...]] = []
    cur = [0] * d
    cur[0] = 1
    for _ in range(2 * n):
        rows.append(tuple(cur))
        carry = cur[d - 1]
        cur = [0] + cur[:-1]
        if carry:
            cur = [c + carry * t for c, t in zip(cur, top)]
    return tuple(rows)


@lru_cache(maxsize=None)
def reduction_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Nonzero ``(i, c)`` of zeta_n^k mod Phi_n for k = phi(n) .. 2 phi(n) - 2.

    Row ``k - phi(n)`` rewrites the power zeta^k of an unreduced product as
    ``sum(c * zeta^i)`` with every ``i < phi(n)``.
    """
    d = euler_phi(n)
    table = _power_basis_table(n)
    return tuple(
        tuple((i, c) for i, c in enumerate(table[k]) if c) for k in range(d, 2 * d - 1)
    )


@lru_cache(maxsize=None)
def power_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Nonzero ``(i, c)`` of zeta_n^k mod Phi_n for k = 0 .. 2 phi(n) - 2."""
    return tuple(((k, 1),) for k in range(euler_phi(n))) + reduction_rows(n)


@lru_cache(maxsize=None)
def conj_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Nonzero ``(i, c)`` of conj(zeta_n^j) = zeta_n^-j in the power basis, j < phi(n)."""
    table = _power_basis_table(n)
    return tuple(
        tuple((i, c) for i, c in enumerate(table[-j % n]) if c) for j in range(euler_phi(n))
    )


# The memo of scaling_rows keeps at most _ROWS_BUDGET (i, c) pairs in all, so
# the rows of many factors, or of dense ones over a large conductor (phi(N)^2
# pairs each), are not all kept; a table above the budget is never stored.
_ROWS_BUDGET = 1 << 14
_rows_memo: dict = {}
_rows_kept = 0


def scaling_rows(n: int, nums: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Nonzero ``(i, c)`` of ``a zeta_n^j`` mod Phi_n for ``j < phi(n)``,
    where ``a = sum(nums[t] zeta_n^t)`` with every ``t < phi(n)``.

    Row ``j`` rewrites ``a`` times a power-basis coordinate ``zeta^j`` with
    every index below phi(n), so a product by ``a`` needs no later
    reduction.  For ``a = zeta^s`` the rows are the powers zeta^(s + j),
    a slice of :func:`power_rows`.  Otherwise row ``j + 1`` is row ``j``
    times zeta: a shift up and one fold of the top coordinate through
    zeta^phi(n).  Memoized per ``(n, nums)`` within the budget above.
    """
    global _rows_kept
    key = (n, nums)
    got = _rows_memo.get(key)
    if got is not None:
        return got
    d = euler_phi(n)
    nonzero = [t for t, c in enumerate(nums) if c]
    if len(nonzero) == 1 and nums[nonzero[0]] == 1:
        return power_rows(n)[nonzero[0]:nonzero[0] + d]
    top = reduction_rows(n)[0]  # zeta^d in the power basis
    cur = list(nums) + [0] * (d - len(nums))
    rows = []
    for _ in range(d):
        rows.append(tuple((i, c) for i, c in enumerate(cur) if c))
        carry = cur.pop()
        cur.insert(0, 0)
        if carry:
            for i, r in top:
                cur[i] += carry * r
    rows = tuple(rows)
    size = sum(map(len, rows))
    if size <= _ROWS_BUDGET:
        if _rows_kept + size > _ROWS_BUDGET:
            _rows_memo.clear()
            _rows_kept = 0
        _rows_memo[key] = rows
        _rows_kept += size
    return rows


def _strip(f: list[int]) -> list[int]:
    while f and not f[-1]:
        f.pop()
    return f


def _inverse_mod_phi(nums, phi) -> tuple[list[int], int]:
    """``(t, c)`` with ``t * A = c`` mod Phi, for ``A = sum(nums[i] x^i)``
    nonzero mod Phi, an int ``c != 0`` and ``deg t < deg Phi``.

    Extended Euclid over Z: each remainder ``r`` carries its cofactor ``t``
    with ``r = t * A`` mod Phi.  A pseudo-division step cancels the top of
    ``r`` against ``x^s`` times the divisor by the smallest int multipliers,
    and after each division the common content of the new ``(r, t)`` pair
    is divided out, which keeps the invariant.  Phi is irreducible, so the
    last remainder is the nonzero constant ``c``.
    """
    r0, t0 = list(phi), []
    r1, t1 = _strip(list(nums)), [1]
    while len(r1) > 1:
        lc, low, top = r1[-1], r1[:-1], len(r1) - 1
        r, t = r0, t0
        while len(r) > top:
            c = r.pop()
            g = math.gcd(c, lc)
            u, v = lc // g, c // g
            s = len(r) - top
            r = [u * x for x in r[:s]] + [u * x - v * y for x, y in zip(r[s:], low)]
            t = [u * x for x in t] + [0] * (s + len(t1) - len(t))
            for j, y in enumerate(t1, s):
                t[j] -= v * y
            _strip(r)
            _strip(t)
        g = math.gcd(*r, *t)
        if g != 1:
            r, t = [x // g for x in r], [x // g for x in t]
        r0, t0, r1, t1 = r1, t1, r, t
    return t1, r1[0]


class ExactScalar:
    """Immutable element of Q, Q(zeta_N), or F_p."""

    __slots__ = ("ring", "value")

    def __init__(self, ring: RingDescriptor, value):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "value", value)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("ExactScalar is immutable")

    # -- construction helpers --

    @staticmethod
    def from_rational(ring: RingDescriptor, q) -> "ExactScalar":
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        if ring.p is not None and q.denominator % ring.p == 0:
            raise IncompatibleRings(f"denominator of {q} vanishes mod {ring.p}")
        return scalar_from_ints(ring, (q.numerator,) + _irrational_zeros(ring), q.denominator)

    @staticmethod
    def from_vector(ring: RingDescriptor, coeffs) -> "ExactScalar":
        if ring.kind != CYCLOTOMIC:
            raise IncompatibleRings(f"coefficient vectors need a cyclotomic ring, got {ring}")
        vec = [Fraction(c) for c in coeffs]
        if len(vec) != ring.degree:
            raise ValueError(f"need {ring.degree} coefficients, got {len(vec)}")
        den = math.lcm(*(c.denominator for c in vec))
        return scalar_from_ints(ring, [c.numerator * (den // c.denominator) for c in vec], den)

    def coeffs(self) -> tuple[Fraction, ...]:
        """Power-basis coordinates of a Q(zeta_N) value, as Fractions."""
        if self.ring.kind != CYCLOTOMIC:
            raise IncompatibleRings(f"coefficient vectors need a cyclotomic ring, got {self.ring}")
        nums, den = self.value
        return tuple(Fraction(c, den) for c in nums)

    def _coerce(self, other) -> "ExactScalar":
        if isinstance(other, ExactScalar):
            if other.ring != self.ring:
                raise IncompatibleRings(f"{self.ring} vs {other.ring}")
            return other
        if isinstance(other, (int, Fraction)):
            return ExactScalar.from_rational(self.ring, other)
        return NotImplemented

    # -- predicates --

    def is_zero(self) -> bool:
        return not any(self.value[0])

    def is_one(self) -> bool:
        return self == one(self.ring)

    def is_rational(self) -> bool:
        """True when the value lies in the image of Q (always on Q and F_p)."""
        return not any(self.value[0][1:])

    def rational_value(self) -> Fraction:
        """The value as a Fraction; on F_p, its representative in [0, p)."""
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        nums, den = self.value
        return Fraction(nums[0], den)

    # -- arithmetic --

    def __add__(self, other):
        if not (isinstance(other, ExactScalar) and other.ring is self.ring):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        (a, da), (b, db) = self.value, other.value
        if da == db:
            return scalar_from_ints(self.ring, tuple(map(operator.add, a, b)), da)
        g = math.gcd(da, db)
        sa, sb = db // g, da // g
        return scalar_from_ints(self.ring, [x * sa + y * sb for x, y in zip(a, b)], da * sa)

    __radd__ = __add__

    def __neg__(self):
        nums, den = self.value
        return scalar_from_ints(self.ring, tuple(map(operator.neg, nums)), den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not (isinstance(other, ExactScalar) and other.ring is self.ring):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        (a, da), (b, db) = self.value, other.value
        d = len(a)
        if d == 1:
            return scalar_from_ints(self.ring, (a[0] * b[0],), da * db)
        conv = [0] * (2 * d - 1)
        for i, u in enumerate(a):
            if u:
                for j, v in enumerate(b, i):
                    if v:
                        conv[j] += u * v
        for k, row in enumerate(reduction_rows(self.ring.conductor), d):
            c = conv[k]
            if c:
                for i, ri in row:
                    conv[i] += c * ri
        return scalar_from_ints(self.ring, conv[:d], da * db)

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        nums, den = self.value
        if len(nums) == 1:
            return scalar_from_ints(self.ring, (den,), nums[0])
        t, c = _inverse_mod_phi(nums, cyclotomic_polynomial(self.ring.conductor))
        return scalar_from_ints(self.ring, [den * x for x in t] + [0] * (len(nums) - len(t)), c)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = one(self.ring)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conj(self) -> "ExactScalar":
        """The involution: zeta -> zeta^-1 on cyclotomics, identity elsewhere."""
        if len(self.value[0]) == 1:  # Q, F_p, and Q(zeta_N) for N <= 2 are real
            return self
        n = self.ring.conductor
        # An automorphism of Z[zeta_N], so the image keeps the canonical den.
        return ExactScalar(self.ring, _apply_power_map(self.value, n, -1, n))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            try:
                other = ExactScalar.from_rational(self.ring, other)
            except IncompatibleRings:
                return False
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self.ring == other.ring and self.value == other.value

    def __hash__(self):
        return hash((self.ring, self.value))

    def __repr__(self):
        return f"ExactScalar({self.ring}, {scalar_to_text(self)})"

    def __str__(self):
        return scalar_to_text(self)


@lru_cache(maxsize=None)
def _irrational_zeros(ring: RingDescriptor) -> tuple[int, ...]:
    """The zero coordinates of zeta^1 .. zeta^(degree - 1), shared by every rational value."""
    return (0,) * (ring.degree - 1)


_new, _set = object.__new__, object.__setattr__


def scalar_from_ints(ring: RingDescriptor, nums, den: int = 1) -> ExactScalar:
    """The scalar ``sum(nums[i] * zeta^i) / den`` in canonical form.

    ``nums`` holds ``ring.degree`` ints and ``den`` is a nonzero int; on
    F_p it must be a unit mod p.  This is the one constructor from ints:
    it reduces mod p on F_p, and elsewhere makes ``den`` positive and
    divides out ``gcd(den, *nums)``.
    """
    p = ring.p
    if p is not None:
        n = nums[0] if den == 1 else nums[0] * pow(den, -1, p)
        value = ((n % p,), 1)
    else:
        if den < 0:
            nums, den = [-c for c in nums], -den
        if den != 1:
            g = math.gcd(den, *nums)
            if g != 1:
                nums, den = [c // g for c in nums], den // g
        value = (tuple(nums), den)
    # allocated without the type call and __init__: this is the hot path of every operation
    a = _new(ExactScalar)
    _set(a, "ring", ring)
    _set(a, "value", value)
    return a


def _apply_power_map(value, n: int, k: int, m: int) -> tuple[tuple[int, ...], int]:
    """``(nums, den)`` in Q(zeta_m) of the image of ``value`` under zeta_n -> zeta_m^k."""
    nums, den = value
    table = _power_basis_table(m)
    out = [0] * euler_phi(m)
    for i, c in enumerate(nums):
        if c:
            for j, rj in enumerate(table[(i * k) % m]):
                if rj:
                    out[j] += c * rj
    return tuple(out), den


@lru_cache(maxsize=None)
def zero(ring: RingDescriptor) -> ExactScalar:
    return ExactScalar.from_rational(ring, 0)


@lru_cache(maxsize=None)
def one(ring: RingDescriptor) -> ExactScalar:
    return ExactScalar.from_rational(ring, 1)


def as_scalar(ring: RingDescriptor, x) -> ExactScalar:
    """``x`` as a scalar of ``ring``: a scalar of that ring as it is, a number
    through :meth:`ExactScalar.from_rational`; IncompatibleRings for a
    scalar of another ring."""
    if isinstance(x, ExactScalar):
        if x.ring != ring:
            raise IncompatibleRings(f"{x.ring} vs {ring}")
        return x
    return ExactScalar.from_rational(ring, x)


def conj(a: ExactScalar) -> ExactScalar:
    return a.conj()


def is_unit_modulus(a: ExactScalar) -> bool:
    """True iff a * conj(a) = 1."""
    return (a * a.conj()).is_one()


def zeta(ring: RingDescriptor, power: int = 1) -> ExactScalar:
    """zeta_N^power in a cyclotomic ring."""
    if ring.kind != CYCLOTOMIC:
        raise IncompatibleRings(f"zeta needs a cyclotomic ring, got {ring}")
    n = ring.conductor
    return ExactScalar(ring, (_power_basis_table(n)[power % n], 1))


def root_of_unity(ring: RingDescriptor, n: int) -> ExactScalar:
    """A primitive n-th root of unity, when the ring contains one."""
    if n < 1:
        raise NoSuchRoot("order must be positive")
    if ring.kind == CYCLOTOMIC:
        if ring.conductor % n != 0:
            raise NoSuchRoot(f"{n} does not divide conductor {ring.conductor}")
        return zeta(ring, ring.conductor // n)
    if ring.kind == PRIME_FIELD:
        p = ring.p
        if n == 1:
            return one(ring)
        if (p - 1) % n != 0:
            raise NoSuchRoot(f"{n} does not divide {p} - 1")
        for c in range(2, p):
            if pow(c, n, p) == 1 and all(pow(c, n // q, p) != 1 for q in _prime_factors(n)):
                return scalar_from_ints(ring, (c,))
        raise NoSuchRoot(f"no element of order {n} in F_{p}")  # pragma: no cover
    if n == 1:
        return one(ring)
    if n == 2:
        return ExactScalar.from_rational(ring, -1)
    raise NoSuchRoot(f"Q contains no primitive {n}-th root of unity")


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _sqrt_mod_p(a: int, p: int) -> int | None:
    """A square root of a mod p, or None (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def sqrt2(ring: RingDescriptor) -> ExactScalar:
    """A square root of 2, when the ring has one.

    Prime fields return the root in [0, p/2); cyclotomics require 8 | N and
    return zeta_8 + zeta_8^-1.
    """
    if ring.kind == RATIONAL:
        raise NoSquareRoot("2 has no square root in Q")
    if ring.kind == PRIME_FIELD:
        p = ring.p
        if p == 2:
            return zero(ring)
        r = _sqrt_mod_p(2, p)
        if r is None:
            raise NoSquareRoot(f"2 is not a quadratic residue mod {p}")
        return scalar_from_ints(ring, (min(r, p - r),))
    n = ring.conductor
    if n % 8 != 0:
        raise NoSquareRoot(f"sqrt(2) needs 8 | conductor, got {n}")
    return zeta(ring, n // 8) + zeta(ring, -(n // 8))


def _rational_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = s^2 * t with t squarefree (n > 0)."""
    s, t, d = 1, 1, 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        s *= d ** (e // 2)
        if e % 2:
            t *= d
        d += 1
    return s, t * n


def scalar_sqrt(a: ExactScalar) -> ExactScalar:
    """A square root of ``a`` in its own ring, or NoSquareRoot.

    Rationals need square numerator and denominator.  Prime fields use the
    quadratic-residue test with the [0, p/2) representative.  Cyclotomics
    handle rational values whose squarefree part is 1, -1, 2 or -2 (given a
    large enough conductor); anything else is refused.
    """
    r = a.ring
    if r.kind == RATIONAL:
        s = _rational_sqrt(a.rational_value())
        if s is None:
            raise NoSquareRoot(f"{a} has no square root in Q")
        return ExactScalar.from_rational(r, s)
    if r.kind == PRIME_FIELD:
        root = _sqrt_mod_p(a.value[0][0], r.p)
        if root is None:
            raise NoSquareRoot(f"{a} is not a quadratic residue mod {r.p}")
        return scalar_from_ints(r, (min(root, r.p - root),))
    if not a.is_rational():
        raise NoSquareRoot(f"no square-root rule for non-rational value {a}")
    q = a.rational_value()
    if q == 0:
        return zero(r)
    sign = 1 if q > 0 else -1
    s2, t = _squarefree_split(abs(q.numerator) * q.denominator)
    base = Fraction(s2, q.denominator)  # sqrt(|q|) = base * sqrt(t)
    result = ExactScalar.from_rational(r, base)
    if t == 2:
        result = result * sqrt2(r)
    elif t != 1:
        raise NoSquareRoot(f"no square-root rule for squarefree part {t}")
    if sign < 0:
        if r.conductor % 4 != 0:
            raise NoSquareRoot(f"sqrt(-1) needs 4 | conductor, got {r.conductor}")
        result = result * zeta(r, r.conductor // 4)
    return result


def embed(a: ExactScalar, target: RingDescriptor) -> ExactScalar:
    """Image of ``a`` under the canonical inclusion into ``target``."""
    if a.ring == target:
        return a
    if a.ring.kind == CYCLOTOMIC and target.kind == CYCLOTOMIC:
        n, m = a.ring.conductor, target.conductor
        if m % n != 0:
            raise IncompatibleRings(f"conductor {n} does not divide {m}")
        # Z[zeta_m] meets Q(zeta_n) in Z[zeta_n], so the image keeps the canonical den.
        return ExactScalar(target, _apply_power_map(a.value, n, m // n, m))
    if a.ring.p is None and a.is_rational():
        return ExactScalar.from_rational(target, a.rational_value())
    raise IncompatibleRings(f"cannot embed {a.ring} into {target}")


def cast_scalar(a: ExactScalar, target: RingDescriptor) -> ExactScalar:
    """Re-express ``a`` in ``target`` when a canonical route exists.

    Extends embed() with the cyclotomic -> prime-field route (zeta_N mapped to
    a primitive N-th root mod p) used when specializing character values.
    """
    if a.ring == target:
        return a
    if a.ring.kind == CYCLOTOMIC and target.kind == PRIME_FIELD:
        if a.is_rational():
            return ExactScalar.from_rational(target, a.rational_value())
        root = root_of_unity(target, a.ring.conductor)
        acc = zero(target)
        for i, c in enumerate(a.coeffs()):
            if c:
                acc = acc + ExactScalar.from_rational(target, c) * root**i
        return acc
    return embed(a, target)


def multiplicative_order(a: ExactScalar, cap: int = 480) -> int | None:
    """Order of ``a`` in the unit group, or None if not a root of unity <= cap."""
    if a.is_zero():
        return None
    acc = a
    for k in range(1, cap + 1):
        if acc.is_one():
            return k
        acc = acc * a
    return None


# --- serialization --------------------------------------------------------

def _ratio_text(n: int, d: int) -> str:
    """``n/d`` in lowest terms, or ``n`` when the denominator divides out."""
    g = math.gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def scalar_to_json(a: ExactScalar):
    """Canonical JSON form: "n/d", {"conductor":N,"coeffs":[...]}, {"p":p,"v":r}."""
    r = a.ring
    nums, den = a.value
    if r.p is not None:
        return {"p": r.p, "v": nums[0]}
    texts = [_ratio_text(c, den) for c in nums]
    if r.kind == CYCLOTOMIC:
        return {"conductor": r.conductor, "coeffs": texts}
    return texts[0]


def scalar_is_negative_text(a: ExactScalar) -> bool:
    """Whether the canonical text form starts with a minus sign."""
    for c in a.value[0]:
        if c:
            return c < 0
    return False


def scalar_is_negative(a: ExactScalar) -> bool:
    """Whether ``a`` is the negative one of ``{a, -a}``: on F_p its residue
    exceeds p/2, elsewhere its text starts with a minus sign."""
    p = a.ring.p
    if p is not None:
        return 2 * a.value[0][0] > p
    return scalar_is_negative_text(a)


def scalar_to_text(a: ExactScalar) -> str:
    """Text atom used inside the polynomial grammar."""
    nums, den = a.value
    if not any(nums[1:]):
        text = _ratio_text(nums[0], den)
        return f"({text})" if "/" in text else text
    parts = []
    for i, c in enumerate(nums):
        if not c:
            continue
        mag = _ratio_text(abs(c), den)
        if i == 0:
            body = mag
        else:
            power = "zeta" if i == 1 else f"zeta^{i}"
            body = power if mag == "1" else f"{mag}*{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return "(" + " ".join(parts) + ")"
