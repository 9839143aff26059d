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

:func:`canonical_value` is the one function that brings ints to this
form, for any number of numerators, and reduces mod p where the ring has a
p.  :func:`scalar_from_ints` builds a scalar from it, and a group-ring
element of ``groups`` is a value of the same layout over |G|
``ring.degree`` numerators.  Both form a sum or difference by
:func:`signed_sum`, over the lcm of the two denominators, and fold the
integer convolution of a cyclotomic product mod Phi_N, which is monic in
Z[x], by :func:`fold_product`.  A cyclotomic inverse is an extended Euclid
over Z against Phi_N; its ``t A = c`` also gives each divisor of
``laurent`` an int leading coefficient.  The packed polynomials of
``laurent`` store the same numerators and denominators and read ``value``
as it is; other modules go through :meth:`ExactScalar.rational_value` and
the functions here.

Each number-theory fact of the layer is kept in one place:

- zeta^k mod Phi_N: :func:`power_rows`, one cached table of N sparse rows
  per conductor, read as row ``k % N`` for any power.
  :func:`fold_product`, ``conj``, ``embed``, :func:`zeta`, the unit case of
  :func:`scaling_rows` and the fold and star of ``laurent`` all read it.
  The rows of any other scalar come from the loop that builds the table
  (:func:`_zeta_multiples`) and are not cached: each operation builds
  them once;
- how an int factors: :func:`_factor`, behind :func:`is_prime`,
  :func:`euler_phi` and :func:`root_of_unity`;
- which square roots a ring holds: :func:`scalar_sqrt`, whose rule for 2
  in Q(zeta_N) is zeta_8 + zeta_8^-1 (so 8 | N), and :func:`sqrt2` is its
  value at 2.
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

# Ring size limits, checked before any table is built.  Q(zeta_N) is held to
# its degree phi(N), since the cost of its arithmetic follows phi(N), not N:
# the inverse sets the limit, and a dense element (power-basis coordinates
# in [-3, 3]) takes 0.04 s at phi(N) = 128 (N = 256), 0.48-0.56 s at
# phi(N) = 256 (N = 257, 512 and 768), 0.87 s at 292 (N = 293), 1.5 s at 330
# (N = 331) and 9.9 s at 512 (N = 1024), on a 2-core x86 VM.  phi(N) >=
# sqrt(N / 2) for every N, so the limit also bounds N (the largest admitted
# conductor is 1050, of degree 240) and the N-row power table, and a
# conductor above 2 MAX_DEGREE^2 is refused without factoring it.
# Primality of p is trial division: 2 ms at the limit, no answer in 20 s at
# 2^61 - 1.
MAX_DEGREE = 256
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


def _factor(n: int) -> tuple[tuple[int, int], ...]:
    """The prime factorization of ``n >= 1`` as ascending ``(prime, exponent)``
    pairs, by trial division: about sqrt(n) / 2 steps, 2 ms at MAX_PRIME."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def is_prime(n: int) -> bool:
    """Primality by trial division (:func:`_factor`)."""
    return n >= 2 and _factor(n) == ((n, 1),)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = n
    for q, _ in _factor(n):
        result -= result // q
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
        if conductor > 2 * MAX_DEGREE**2 or euler_phi(conductor) > MAX_DEGREE:
            raise ValueError(f"the degree phi({conductor}) of conductor {conductor} exceeds the limit {MAX_DEGREE}")
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
        """The ring of a JSON descriptor; anything malformed is a ParseError: a
        parameter of another kind (refused by :func:`_check_ring`) or any other key."""
        kind = obj.get("kind") if isinstance(obj, dict) else None
        if kind not in (RATIONAL, CYCLOTOMIC, PRIME_FIELD):
            raise ParseError(f"bad ring descriptor {obj!r}")
        needed = {CYCLOTOMIC: "conductor", PRIME_FIELD: "p"}.get(kind)
        try:
            unknown = sorted(set(obj) - {"kind", "conductor", "p"}, key=str)
            if unknown:
                raise ParseError(f"unknown key {', '.join(map(repr, unknown))}")
            params = {k: input_int(obj[k], k) for k in ("conductor", "p") if k in obj or k == needed}
            return RingDescriptor(kind, **params)
        except KeyError as exc:
            raise ParseError(f"bad ring descriptor {obj!r}: missing {exc}") from exc
        except (ParseError, ValueError) as exc:
            raise ParseError(f"bad ring descriptor {obj!r}: {exc}") from exc


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


def _zeta_multiples(n: int, vec: list[int], count: int) -> list[tuple[tuple[int, int], ...]]:
    """Nonzero ``(i, c)`` of ``a zeta_n^j`` mod Phi_n for ``j < count``,
    where ``vec`` lists the phi(n) power-basis coordinates of ``a``.

    Row ``j + 1`` is row ``j`` times zeta: a shift up and one fold of the
    top coordinate through zeta^phi(n) = -(Phi_n - x^phi(n)), Phi_n being
    monic over Z.  This is the one loop that multiplies by zeta mod Phi_n:
    it builds the power table and the rows of one scalar.
    """
    top = [(i, -c) for i, c in enumerate(cyclotomic_polynomial(n)[:-1]) if c]
    cur = list(vec)
    rows = []
    for _ in range(count):
        rows.append(tuple((i, c) for i, c in enumerate(cur) if c))
        carry = cur.pop()
        cur.insert(0, 0)
        if carry:
            for i, r in top:
                cur[i] += carry * r
    return rows


@lru_cache(maxsize=None)
def power_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Nonzero ``(i, c)`` of zeta_n^k mod Phi_n for k = 0 .. n-1, every
    ``i < phi(n)``: the power table of conductor n.

    zeta_n has order n, so the power zeta^k of any int k is row ``k % n``.
    Rows below phi(n) are the basis vectors themselves, and the rest are
    zeta^phi(n) times zeta^j for j < n - phi(n).
    """
    d = euler_phi(n)
    top = [-c for c in cyclotomic_polynomial(n)[:d]]
    return tuple([((k, 1),) for k in range(d)] + _zeta_multiples(n, top, n - d))


def scaling_rows(n: int, nums: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Nonzero ``(i, c)`` of ``a zeta_n^j`` mod Phi_n for ``j < phi(n)``,
    where ``a = sum(nums[t] zeta_n^t)`` with every ``t < phi(n)``.

    Row ``j`` rewrites ``a`` times a power-basis coordinate ``zeta^j`` with
    every index below phi(n), so a product by ``a`` needs no later
    reduction.  The rows come from :func:`_zeta_multiples`, each row the one
    before times zeta.  Nothing is kept between calls: a caller that scales
    many terms by one ``a`` builds its rows once.
    """
    d = euler_phi(n)
    return tuple(_zeta_multiples(n, list(nums) + [0] * (d - len(nums)), d))


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
    """Element of Q, Q(zeta_N), or F_p, a value that never changes.

    ``value`` is the canonical ``(nums, den)`` of the module docstring.
    Immutability is a contract, not a guard: no operation changes a scalar
    once it is built, every one returns a new object (or an operand as it
    is), and callers must not assign ``ring`` or ``value``.  Equality and
    hashing rely on it.  The slots are plain, so a scalar is built by plain
    stores, and copy, deepcopy and pickle round-trip it.
    """

    __slots__ = ("ring", "value")

    def __init__(self, ring: RingDescriptor, value):
        self.ring = ring
        self.value = value

    # -- construction helpers --

    @staticmethod
    def from_rational(ring: RingDescriptor, q) -> "ExactScalar":
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        return scalar_from_ratio(ring, q.numerator, q.denominator)

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
        r = _new(ExactScalar)
        r.ring = ring = self.ring
        r.value = signed_sum(ring, self.value, other.value)
        return r

    __radd__ = __add__

    def __neg__(self):
        nums, den = self.value
        return scalar_from_ints(self.ring, tuple(map(operator.neg, nums)), den)

    def __sub__(self, other):
        if not (isinstance(other, ExactScalar) and other.ring is self.ring):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        r = _new(ExactScalar)
        r.ring = ring = self.ring
        r.value = signed_sum(ring, self.value, other.value, -1)
        return r

    def __rsub__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else other - self

    def __mul__(self, other):
        if not (isinstance(other, ExactScalar) and other.ring is self.ring):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        (a, da), (b, db) = self.value, other.value
        d = len(a)
        if d == 1:
            nums = (a[0] * b[0],)
        else:
            conv = [0] * (2 * d - 1)
            for i, u in enumerate(a):
                if u:
                    for j, v in enumerate(b, i):
                        if v:
                            conv[j] += u * v
            nums = fold_product(conv, self.ring.conductor, d)
        r = _new(ExactScalar)
        r.ring = ring = self.ring
        r.value = canonical_value(ring, nums, da * db)
        return r

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
        other = self._coerce(other)
        return other if other is NotImplemented else other / self

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


_new = object.__new__


def canonical_value(ring: RingDescriptor, nums, den: int) -> tuple[tuple[int, ...], int]:
    """The canonical ``(nums, den)`` of ints ``nums`` of any length over a
    nonzero ``den``, which on F_p must be a unit mod p."""
    p = ring.p
    if p is not None:
        u = 1 if den == 1 else pow(den, -1, p)
        if len(nums) == 1:  # a scalar: no list to build
            return (nums[0] * u % p,), 1
        return tuple([c * u % p for c in nums]), 1
    if den < 0:
        nums, den = [-c for c in nums], -den
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = [c // g for c in nums], den // g
    return tuple(nums), den


def scalar_from_ints(ring: RingDescriptor, nums, den: int = 1) -> ExactScalar:
    """The scalar ``sum(nums[i] * zeta^i) / den``: ``ring.degree`` ints
    over a nonzero int, brought to canonical form by :func:`canonical_value`."""
    # allocated without the type call and __init__, as the arithmetic operations do: a hot path
    a = _new(ExactScalar)
    a.ring = ring
    a.value = canonical_value(ring, nums, den)
    return a


def scalar_from_ratio(ring: RingDescriptor, n: int, d: int) -> ExactScalar:
    """The rational scalar ``n / d``, for ints with ``d > 0``: IncompatibleRings
    on F_p when the denominator of ``n / d`` in lowest terms vanishes mod p."""
    g = math.gcd(n, d)
    n, d = n // g, d // g
    if ring.p is not None and d % ring.p == 0:
        raise IncompatibleRings(f"denominator of {n}/{d} vanishes mod {ring.p}")
    return scalar_from_ints(ring, (n,) + _irrational_zeros(ring), d)


def signed_sum(ring: RingDescriptor, x, y, sign: int = 1) -> tuple[tuple[int, ...], int]:
    """The canonical value of ``x + sign * y``, for two values ``(nums,
    den)`` of the same length, formed over the lcm of their denominators."""
    (a, da), (b, db) = x, y
    g = math.gcd(da, db)
    sa, sb = db // g, sign * (da // g)
    return canonical_value(ring, [u * sa + v * sb for u, v in zip(a, b)], da * sa)


def fold_product(conv: list[int], n: int, d: int) -> list[int]:
    """The ``d = phi(n)`` coordinates mod Phi_n of ``conv``, the ``2 d - 1``
    of a product in Q(zeta_n): each coordinate ``k >= d`` is folded once,
    through row ``k % n`` of :func:`power_rows`, in place."""
    rows = power_rows(n)
    for k in range(d, 2 * d - 1):
        c = conv[k]
        if c:
            for i, r in rows[k % n]:
                conv[i] += c * r
    return conv[:d]


def _apply_power_map(value, n: int, k: int, m: int) -> tuple[tuple[int, ...], int]:
    """``(nums, den)`` in Q(zeta_m) of the image of ``value`` under zeta_n -> zeta_m^k."""
    nums, den = value
    rows = power_rows(m)
    out = [0] * euler_phi(m)
    for i, c in enumerate(nums):
        if c:
            for j, rj in rows[(i * k) % m]:
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


def is_unit_modulus(a: ExactScalar) -> bool:
    """True iff a * conj(a) = 1."""
    return (a * a.conj()).is_one()


def zeta(ring: RingDescriptor, power: int = 1) -> ExactScalar:
    """zeta_N^power in a cyclotomic ring."""
    if ring.kind != CYCLOTOMIC:
        raise IncompatibleRings(f"zeta needs a cyclotomic ring, got {ring}")
    n = ring.conductor
    nums = [0] * ring.degree
    for i, c in power_rows(n)[power % n]:
        nums[i] = c
    return ExactScalar(ring, (tuple(nums), 1))


def root_of_unity(ring: RingDescriptor, n: int) -> ExactScalar:
    """A primitive n-th root of unity, when the ring contains one.

    On F_p it is the least residue of order n, the least of the generators
    r^j (j prime to n) of the one subgroup of order n, where r = c^((p-1)/n)
    for the first c = 2, 3, ... that gives order n.  That takes about n
    steps whatever the least one is; the package asks only for orders that
    divide a conductor, so n <= 1050 (see ``MAX_DEGREE``).
    """
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
        primes = [q for q, _ in _factor(n)]
        for c in range(2, p):
            r = pow(c, (p - 1) // n, p)
            if all(pow(r, n // q, p) != 1 for q in primes):
                break
        least = min(pow(r, j, p) for j in range(1, n) if math.gcd(j, n) == 1)
        return scalar_from_ints(ring, (least,))
    if n == 1:
        return one(ring)
    if n == 2:
        return ExactScalar.from_rational(ring, -1)
    raise NoSuchRoot(f"Q contains no primitive {n}-th root of unity")


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
    """A square root of 2, when the ring has one: :func:`scalar_sqrt` of 2."""
    return scalar_sqrt(ExactScalar.from_rational(ring, 2))


def _rational_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def scalar_sqrt(a: ExactScalar) -> ExactScalar:
    """A square root of ``a`` in its own ring, or NoSquareRoot.

    Rationals need square numerator and denominator.  Prime fields use the
    quadratic-residue test with the [0, p/2) representative.  Cyclotomics
    handle rational values q whose squarefree part is 1, -1, 2 or -2, found
    by ``math.isqrt`` on |num| den and on half of it, without factoring:
    sqrt(2) is zeta_8 + zeta_8^-1, which needs 8 | N, and sqrt(-1) is
    zeta_4, which needs 4 | N; anything else is refused.
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
    n = r.conductor
    # sqrt(|q|) = sqrt(m) / den for m = |num| den, and m is s^2 or 2 s^2
    # exactly when its squarefree part is 1 or 2: two isqrt calls, no factoring
    m = abs(q.numerator) * q.denominator
    s = math.isqrt(m)
    if s * s == m:
        result = ExactScalar.from_rational(r, Fraction(s, q.denominator))
    else:
        s = math.isqrt(m // 2)
        if 2 * s * s != m:
            raise NoSquareRoot(f"no square-root rule for {q}: its squarefree part is not 1, -1, 2 or -2")
        if n % 8 != 0:
            raise NoSquareRoot(f"sqrt(2) needs 8 | conductor, got {n}")
        result = ExactScalar.from_rational(r, Fraction(s, q.denominator)) * (zeta(r, n // 8) + zeta(r, -(n // 8)))
    if q < 0:
        if n % 4 != 0:
            raise NoSquareRoot(f"sqrt(-1) needs 4 | conductor, got {n}")
        result = result * zeta(r, n // 4)
    return result


def embed(a: ExactScalar, target: RingDescriptor) -> ExactScalar:
    """Image of ``a`` under the canonical inclusion into ``target``."""
    if a.ring == target:
        return a
    if a.ring.p is None and a.is_rational():
        return ExactScalar.from_rational(target, a.rational_value())
    if a.ring.kind == CYCLOTOMIC and target.kind == CYCLOTOMIC:
        n, m = a.ring.conductor, target.conductor
        if m % n != 0:
            raise IncompatibleRings(f"conductor {n} does not divide {m}")
        # Z[zeta_m] meets Q(zeta_n) in Z[zeta_n], so the image keeps the canonical den.
        return ExactScalar(target, _apply_power_map(a.value, n, m // n, m))
    raise IncompatibleRings(f"cannot embed {a.ring} into {target}")


def cast_scalar(a: ExactScalar, target: RingDescriptor) -> ExactScalar:
    """Re-express ``a`` in ``target`` when a canonical route exists.

    Extends embed() with the cyclotomic -> prime-field route (zeta_N mapped to
    a primitive N-th root mod p) used when specializing character values.
    """
    if a.ring.kind == CYCLOTOMIC and target.kind == PRIME_FIELD and not a.is_rational():
        (nums, den), p = a.value, target.p
        if den % p == 0:
            raise IncompatibleRings(f"denominator of {a} vanishes mod {p}")
        root = root_of_unity(target, a.ring.conductor).value[0][0]
        return scalar_from_ints(target, (sum(c * pow(root, i, p) for i, c in enumerate(nums)),), den)
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


def scalar_is_negative(a: ExactScalar) -> bool:
    """Whether ``a`` is the negative one of ``{a, -a}``: on F_p its residue
    exceeds p/2, elsewhere its text starts with a minus sign."""
    nums, p = a.value[0], a.ring.p
    if p is not None:
        return 2 * nums[0] > p
    return next((c < 0 for c in nums if c), False)


def scalar_to_text(a: ExactScalar) -> str:
    """Text atom used inside the polynomial grammar (:func:`coefficient_text`)."""
    return coefficient_text(*a.value)


def coefficient_text(nums, den: int) -> str:
    """Text atom of ``sum(nums[i] * zeta^i) / den`` for ints over ``den > 0``,
    not necessarily in lowest terms: each coordinate is printed in lowest
    terms.  The one coefficient printer, of scalars and of the terms of a
    polynomial (``laurent_text.poly_to_text``) alike."""
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
