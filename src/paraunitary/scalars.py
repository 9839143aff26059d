"""Exact coefficient tower: rationals, cyclotomic numbers, and prime fields.

Every scalar carries a RingDescriptor and supports the involution ``conj``:
complex conjugation (zeta -> zeta^-1) on cyclotomics, the identity on
rationals and prime fields.  Values are immutable and arithmetic between
different descriptors is an error; use :func:`embed` to move values.

``ExactScalar.value`` layout, known only to this module:

- Q: a ``fractions.Fraction``.
- F_p: an ``int`` in ``[0, p)``.
- Q(zeta_N): ``(nums, den)``, an int tuple of length phi(N) over one common
  denominator, so the element is ``sum(nums[i] * zeta^i) / den`` in the power
  basis.  The form is canonical: ``den > 0`` and
  ``math.gcd(den, *nums) == 1``, so zero is ``((0, ..., 0), 1)``.
  ``__eq__`` and ``__hash__`` compare ``value`` directly and rely on this.

Phi_N is monic with integer coefficients, so reducing a product mod Phi_N
stays in Z and a cyclotomic product is an integer convolution, a reduction,
and one gcd.  Other modules read coordinates through
:meth:`ExactScalar.coeffs`, :func:`scalar_denominator` and the int form of
:func:`scalar_to_ints` / :func:`scalar_from_ints`, which is what the packed
polynomials of ``laurent`` store.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
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
# and a 2N-row power-basis table: one parse and one product take 0.6 s at
# N = 840 and 0.03 s at N = 1024, and the tables of N = 2310 alone take 10 s.
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


@dataclass(frozen=True)
class RingDescriptor:
    """Identifies one of Q, Q(zeta_N), or F_p."""

    kind: str
    conductor: int | None = None
    p: int | None = None

    def __post_init__(self):
        if self.kind == RATIONAL:
            if self.conductor is not None or self.p is not None:
                raise ValueError("rational ring takes no parameters")
        elif self.kind == CYCLOTOMIC:
            if self.conductor is None or self.conductor < 1:
                raise ValueError("cyclotomic ring needs conductor >= 1")
            if self.conductor > MAX_CONDUCTOR:
                raise ValueError(f"conductor {self.conductor} exceeds the limit {MAX_CONDUCTOR}")
            if self.p is not None:
                raise ValueError("cyclotomic ring takes no prime")
        elif self.kind == PRIME_FIELD:
            if self.p is not None and self.p > MAX_PRIME:
                raise ValueError(f"prime {self.p} exceeds the limit {MAX_PRIME}")
            if self.p is None or not is_prime(self.p):
                raise ValueError(f"prime field needs a prime, got {self.p}")
            if self.conductor is not None:
                raise ValueError("prime field takes no conductor")
        else:
            raise ValueError(f"unknown ring kind {self.kind!r}")

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


@lru_cache(maxsize=None)
def cyclotomic(conductor: int) -> RingDescriptor:
    return RingDescriptor(CYCLOTOMIC, conductor=conductor)


@lru_cache(maxsize=None)
def prime_field(p: int) -> RingDescriptor:
    return RingDescriptor(PRIME_FIELD, p=p)


# --- cyclotomic polynomial machinery ------------------------------------

def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    inv_lead = 1 / den[-1]
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] * inv_lead
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return q, num


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[Fraction, ...]:
    """Coefficients of Phi_n, ascending degree, computed by recursive quotient."""
    if n == 1:
        return (Fraction(-1), Fraction(1))
    num = [Fraction(0)] * (n + 1)
    num[0], num[n] = Fraction(-1), Fraction(1)
    den = [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, list(cyclotomic_polynomial(d)))
    q, rem = _poly_divmod(num, den)
    assert all(c == 0 for c in rem)
    return tuple(q)


@lru_cache(maxsize=None)
def _power_basis_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Reductions of zeta_n^k mod Phi_n for k = 0 .. 2n-1, as int phi(n)-vectors."""
    d = euler_phi(n)
    phi = cyclotomic_polynomial(n)
    # x^d = -(phi_0 + phi_1 x + ... + phi_{d-1} x^{d-1})  (Phi_n is monic over Z)
    top = [-int(c) for c in phi[:d]]
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
def conj_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Nonzero ``(i, c)`` of conj(zeta_n^j) = zeta_n^-j in the power basis, j < phi(n)."""
    table = _power_basis_table(n)
    return tuple(
        tuple((i, c) for i, c in enumerate(table[-j % n]) if c) for j in range(euler_phi(n))
    )


def _canonical(nums, den: int) -> tuple[tuple[int, ...], int]:
    """The canonical ``(nums, den)`` of ``sum(nums[i] zeta^i) / den`` (den > 0)."""
    g = math.gcd(den, *nums)
    if g == 1:
        return tuple(nums), den
    return tuple([c // g for c in nums]), den // g


def _from_fractions(coeffs) -> tuple[tuple[int, ...], int]:
    """The canonical ``(nums, den)`` of a power-basis vector of Fractions."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return _canonical([c.numerator * (den // c.denominator) for c in coeffs], den)


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
        q = Fraction(q)
        if ring.kind == RATIONAL:
            return ExactScalar(ring, q)
        if ring.kind == CYCLOTOMIC:
            return ExactScalar(
                ring, ((q.numerator,) + (0,) * (ring.degree - 1), q.denominator)
            )
        if q.denominator % ring.p == 0:
            raise IncompatibleRings(f"denominator of {q} vanishes mod {ring.p}")
        num = q.numerator % ring.p
        den = pow(q.denominator % ring.p, ring.p - 2, ring.p)
        return ExactScalar(ring, (num * den) % ring.p)

    @staticmethod
    def from_vector(ring: RingDescriptor, coeffs) -> "ExactScalar":
        if ring.kind != CYCLOTOMIC:
            raise IncompatibleRings(f"coefficient vectors need a cyclotomic ring, got {ring}")
        vec = [Fraction(c) for c in coeffs]
        if len(vec) != ring.degree:
            raise ValueError(f"need {ring.degree} coefficients, got {len(vec)}")
        return ExactScalar(ring, _from_fractions(vec))

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
        if self.ring.kind == CYCLOTOMIC:
            return not any(self.value[0])
        return self.value == 0

    def is_one(self) -> bool:
        return self == one(self.ring)

    def is_rational(self) -> bool:
        """True when the value lies in the prime subfield image of Q."""
        if self.ring.kind == CYCLOTOMIC:
            return not any(self.value[0][1:])
        return True

    def rational_value(self) -> Fraction:
        if self.ring.kind == RATIONAL:
            return self.value
        if self.ring.kind == CYCLOTOMIC:
            if not self.is_rational():
                raise ValueError(f"{self} is not rational")
            nums, den = self.value
            return Fraction(nums[0], den)
        raise ValueError("prime-field residues have no canonical rational value")

    # -- arithmetic --

    def __add__(self, other):
        if not (isinstance(other, ExactScalar) and other.ring is self.ring):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        r = self.ring
        if r.kind == CYCLOTOMIC:
            (a, da), (b, db) = self.value, other.value
            if da == db:
                nums = [x + y for x, y in zip(a, b)]
                if da == 1:
                    return ExactScalar(r, (tuple(nums), 1))
                return ExactScalar(r, _canonical(nums, da))
            g = math.gcd(da, db)
            sa, sb = db // g, da // g
            return ExactScalar(
                r, _canonical([x * sa + y * sb for x, y in zip(a, b)], da * sa)
            )
        if r.kind == PRIME_FIELD:
            return ExactScalar(r, (self.value + other.value) % r.p)
        return ExactScalar(r, self.value + other.value)

    __radd__ = __add__

    def __neg__(self):
        r = self.ring
        if r.kind == CYCLOTOMIC:
            nums, den = self.value
            return ExactScalar(r, (tuple(-c for c in nums), den))
        if r.kind == PRIME_FIELD:
            return ExactScalar(r, (-self.value) % r.p)
        return ExactScalar(r, -self.value)

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
        r = self.ring
        if r.kind == CYCLOTOMIC:
            (a, da), (b, db) = self.value, other.value
            d = len(a)
            conv = [0] * (2 * d - 1)
            for i, u in enumerate(a):
                if u:
                    for j, v in enumerate(b, i):
                        if v:
                            conv[j] += u * v
            for k, row in enumerate(reduction_rows(r.conductor), d):
                c = conv[k]
                if c:
                    for i, ri in row:
                        conv[i] += c * ri
            return ExactScalar(r, _canonical(conv[:d], da * db))
        if r.kind == PRIME_FIELD:
            return ExactScalar(r, (self.value * other.value) % r.p)
        return ExactScalar(r, self.value * other.value)

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        r = self.ring
        if r.kind == RATIONAL:
            return ExactScalar(r, 1 / self.value)
        if r.kind == PRIME_FIELD:
            return ExactScalar(r, pow(self.value, r.p - 2, r.p))
        # extended Euclid in Q[x] against Phi_N; invariant s_i * self = r_i mod Phi
        phi = list(cyclotomic_polynomial(r.conductor))
        a = list(self.coeffs())
        while len(a) > 1 and a[-1] == 0:
            a.pop()
        r0, r1 = a, phi
        s0, s1 = [Fraction(1)], [Fraction(0)]
        while any(c != 0 for c in r1):
            q, rem = _poly_divmod(r0, r1)
            qs = _poly_mul(q, s1)
            news = [Fraction(0)] * max(len(s0), len(qs))
            for i, c in enumerate(s0):
                news[i] += c
            for i, c in enumerate(qs):
                news[i] -= c
            while len(news) > 1 and news[-1] == 0:
                news.pop()
            r0, r1 = r1, rem
            s0, s1 = s1, news
        g = r0[0]  # nonzero constant: Phi_N is irreducible over Q
        d = r.degree
        table = _power_basis_table(r.conductor)
        vec = [Fraction(0)] * d
        for i, c in enumerate(s0):
            c = c / g
            if not c:
                continue
            row = table[i]
            for j in range(d):
                if row[j]:
                    vec[j] += c * row[j]
        return ExactScalar(r, _from_fractions(vec))

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
        r = self.ring
        if r.kind != CYCLOTOMIC:
            return self
        # An automorphism of Z[zeta_N], so the image keeps the canonical den.
        return ExactScalar(r, _apply_power_map(self.value, r.conductor, -1, r.conductor))

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


def scalar_to_ints(a: ExactScalar) -> tuple[tuple[int, ...], int]:
    """``a`` as power-basis int numerators over one positive denominator.

    Q gives ``((num,), den)``, F_p ``((residue,), 1)`` and Q(zeta_N) its
    canonical ``(nums, den)``; :func:`scalar_from_ints` is the inverse.
    """
    kind = a.ring.kind
    if kind == CYCLOTOMIC:
        return a.value
    if kind == RATIONAL:
        return (a.value.numerator,), a.value.denominator
    return (a.value,), 1


def scalar_from_ints(ring: RingDescriptor, nums, den: int) -> ExactScalar:
    """The scalar ``sum(nums[i] * zeta^i) / den`` (``den > 0``), in canonical form.

    On Q and F_p ``nums`` has one entry; on F_p ``den`` is 1.
    """
    kind = ring.kind
    if kind == CYCLOTOMIC:
        return ExactScalar(ring, _canonical(nums, den))
    if kind == RATIONAL:
        return ExactScalar(ring, Fraction(nums[0], den))
    return ExactScalar(ring, nums[0] % ring.p)


def scalar_denominator(a: ExactScalar) -> int:
    """Least common denominator of the Q-coordinates of ``a`` (1 on F_p)."""
    if a.ring.kind == RATIONAL:
        return a.value.denominator
    if a.ring.kind == CYCLOTOMIC:
        return a.value[1]
    return 1


@lru_cache(maxsize=None)
def zero(ring: RingDescriptor) -> ExactScalar:
    return ExactScalar.from_rational(ring, 0)


@lru_cache(maxsize=None)
def one(ring: RingDescriptor) -> ExactScalar:
    return ExactScalar.from_rational(ring, 1)


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
                return ExactScalar(ring, c)
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
        return ExactScalar(ring, min(r, p - r))
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
        s = _rational_sqrt(a.value)
        if s is None:
            raise NoSquareRoot(f"{a} has no square root in Q")
        return ExactScalar(r, s)
    if r.kind == PRIME_FIELD:
        root = _sqrt_mod_p(a.value, r.p)
        if root is None:
            raise NoSquareRoot(f"{a.value} is not a quadratic residue mod {r.p}")
        return ExactScalar(r, min(root, (r.p - root) % r.p))
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
    if a.ring.kind == RATIONAL:
        return ExactScalar.from_rational(target, a.value)
    if a.ring.kind == CYCLOTOMIC and target.kind == CYCLOTOMIC:
        n, m = a.ring.conductor, target.conductor
        if m % n != 0:
            raise IncompatibleRings(f"conductor {n} does not divide {m}")
        # Z[zeta_m] meets Q(zeta_n) in Z[zeta_n], so the image keeps the canonical den.
        return ExactScalar(target, _apply_power_map(a.value, n, m // n, m))
    if a.ring.kind == CYCLOTOMIC and a.is_rational():
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

def _fraction_to_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def scalar_to_json(a: ExactScalar):
    """Canonical JSON form: "n/d", {"conductor":N,"coeffs":[...]}, {"p":p,"v":r}."""
    r = a.ring
    if r.kind == RATIONAL:
        return _fraction_to_text(a.value)
    if r.kind == CYCLOTOMIC:
        return {
            "conductor": r.conductor,
            "coeffs": [_fraction_to_text(c) for c in a.coeffs()],
        }
    return {"p": r.p, "v": a.value}


def scalar_from_json(obj, ring: RingDescriptor | None = None) -> ExactScalar:
    if isinstance(obj, str) or isinstance(obj, int):
        q = Fraction(obj)
        return ExactScalar.from_rational(ring or QQ, q)
    if isinstance(obj, dict) and "conductor" in obj:
        r = cyclotomic(int(obj["conductor"]))
        if ring is not None and ring != r:
            raise ParseError(f"scalar conductor {r} does not match ring {ring}")
        return ExactScalar.from_vector(r, [Fraction(c) for c in obj["coeffs"]])
    if isinstance(obj, dict) and "p" in obj:
        r = prime_field(int(obj["p"]))
        if ring is not None and ring != r:
            raise ParseError(f"scalar field {r} does not match ring {ring}")
        return ExactScalar(r, int(obj["v"]) % r.p)
    raise ParseError(f"bad scalar {obj!r}")


def scalar_is_negative_text(a: ExactScalar) -> bool:
    """Whether the canonical text form starts with a minus sign."""
    if a.ring.kind == RATIONAL:
        return a.value < 0
    if a.ring.kind == CYCLOTOMIC:
        for c in a.value[0]:
            if c:
                return c < 0
        return False
    return False


def scalar_to_text(a: ExactScalar) -> str:
    """Text atom used inside the polynomial grammar."""
    r = a.ring
    if r.kind == RATIONAL:
        if a.value.denominator == 1:
            return str(a.value.numerator)
        return f"({_fraction_to_text(a.value)})"
    if r.kind == PRIME_FIELD:
        return str(a.value)
    if a.is_rational():
        q = a.rational_value()
        if q.denominator == 1:
            return str(q.numerator)
        return f"({_fraction_to_text(q)})"
    parts = []
    for i, c in enumerate(a.coeffs()):
        if not c:
            continue
        if i == 0:
            body = _fraction_to_text(abs(c))
        else:
            power = "zeta" if i == 1 else f"zeta^{i}"
            body = power if abs(c) == 1 else f"{_fraction_to_text(abs(c))}*{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return "(" + " ".join(parts) + ")"
