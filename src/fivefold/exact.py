"""Exact arithmetic in the golden ring Z[tau] and the rank-4 module Z[eps].

Every metric scalar in this package is a ``GoldenInt`` ``a + b*tau`` with
``tau = (1+sqrt(5))/2``, and every tiling vertex is a ``CycloPoint``
``z0 + z1*eps + z2*eps^2 + z3*eps^3`` with ``eps = exp(2*pi*i/5)``.  Both
types are immutable and all operations are pure, so values can be shared
freely across threads.

Floating point enters only through the ``embed`` methods; everything else
is integer arithmetic (Python integers never overflow, so ring results are
exact at any size).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

__all__ = [
    "GoldenInt",
    "CycloPoint",
    "PHI",
    "ZERO",
    "ONE",
    "EPS",
    "EPS1",
    "TAU_C",
    "ROT36",
    "golden_sign",
    "sq_norm_ab",
    "cross_ab",
    "LinearVerdict",
    "int_lin_independent",
]

# Golden ratio to full double precision; the unique positive root of x^2 = x + 1.
PHI = (1.0 + math.sqrt(5.0)) / 2.0

# cos/sin of 72k degrees from radicals (sqrt is correctly rounded, so these
# are reproducible across platforms, unlike libm cos/sin).
_COS72 = (math.sqrt(5.0) - 1.0) / 4.0
_SIN72 = math.sqrt(10.0 + 2.0 * math.sqrt(5.0)) / 4.0
_COS144 = -(math.sqrt(5.0) + 1.0) / 4.0
_SIN144 = math.sqrt(10.0 - 2.0 * math.sqrt(5.0)) / 4.0
_COSK = (1.0, _COS72, _COS144, _COS144, _COS72)
_SINK = (0.0, _SIN72, _SIN144, -_SIN144, -_SIN72)


def golden_sign(a: int, b: int) -> int:
    """Exact sign of a + b*tau.

    Mixed-sign coefficients reduce to an integer comparison because
    a/c > tau iff a^2 - a*c - c^2 > 0 (and the quadratic never hits 0
    for integers not both zero, tau being irrational).
    """
    if a >= 0 and b >= 0:
        return 1 if a or b else 0
    if a <= 0 and b <= 0:
        return -1
    if a > 0:  # a > 0 > b: positive iff a > (-b)*tau
        c = -b
        return 1 if a * a - a * c - c * c > 0 else -1
    d = -a  # b > 0 > a: positive iff b*tau > d
    return 1 if d * d - d * b - b * b < 0 else -1


@dataclass(frozen=True, slots=True)
class GoldenInt:
    """Element a + b*tau of Z[tau], reduced via tau^2 = tau + 1."""

    a: int
    b: int

    @classmethod
    def of(cls, x: "GoldenInt | int") -> "GoldenInt":
        if isinstance(x, GoldenInt):
            return x
        return cls(x, 0)

    def __add__(self, other: "GoldenInt | int") -> "GoldenInt":
        o = GoldenInt.of(other)
        return GoldenInt(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: "GoldenInt | int") -> "GoldenInt":
        o = GoldenInt.of(other)
        return GoldenInt(self.a - o.a, self.b - o.b)

    def __rsub__(self, other: "GoldenInt | int") -> "GoldenInt":
        return GoldenInt.of(other) - self

    def __neg__(self) -> "GoldenInt":
        return GoldenInt(-self.a, -self.b)

    def __mul__(self, other: "GoldenInt | int") -> "GoldenInt":
        o = GoldenInt.of(other)
        # (a + b*tau)(c + d*tau) = ac + (ad + bc)*tau + bd*(tau + 1)
        return GoldenInt(self.a * o.a + self.b * o.b,
                         self.a * o.b + self.b * o.a + self.b * o.b)

    __rmul__ = __mul__

    def conj(self) -> "GoldenInt":
        """Galois conjugate tau -> 1 - tau: conj(a + b*tau) = (a+b) - b*tau."""
        return GoldenInt(self.a + self.b, -self.b)

    def norm(self) -> int:
        """x * conj(x) as a rational integer: a^2 + a*b - b^2."""
        return self.a * self.a + self.a * self.b - self.b * self.b

    def inverse(self) -> "GoldenInt":
        """Multiplicative inverse; defined only for units (norm +-1)."""
        n = self.norm()
        if n == 1:
            return self.conj()
        if n == -1:
            return -self.conj()
        raise ZeroDivisionError(f"{self} is not a unit of Z[tau] (norm {n})")

    def __pow__(self, k: int) -> "GoldenInt":
        if k < 0:
            return self.inverse() ** (-k)
        out = GoldenInt(1, 0)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def sign(self) -> int:
        """Exact sign of the embedded value."""
        return golden_sign(self.a, self.b)

    def __lt__(self, other: "GoldenInt | int") -> bool:
        return (self - GoldenInt.of(other)).sign() < 0

    def __le__(self, other: "GoldenInt | int") -> bool:
        return (self - GoldenInt.of(other)).sign() <= 0

    def __gt__(self, other: "GoldenInt | int") -> bool:
        return (self - GoldenInt.of(other)).sign() > 0

    def __ge__(self, other: "GoldenInt | int") -> bool:
        return (self - GoldenInt.of(other)).sign() >= 0

    def embed(self) -> float:
        return self.a + self.b * PHI

    def __str__(self) -> str:
        return f"{self.a}{self.b:+d}t"

    def __repr__(self) -> str:
        return f"GoldenInt({self.a}, {self.b})"


def _mul5(p: Sequence[int], q: Sequence[int]) -> list[int]:
    """Coefficient product of two 5-term polynomials modulo x^5 - 1."""
    out = [0, 0, 0, 0, 0]
    for i, pi in enumerate(p):
        if pi == 0:
            continue
        for j, qj in enumerate(q):
            out[(i + j) % 5] += pi * qj
    return out


@dataclass(frozen=True, slots=True)
class CycloPoint:
    """Plane point z0 + z1*eps + z2*eps^2 + z3*eps^3 with integer z_i.

    The basis {1, eps, eps^2, eps^3} is integer-linearly independent, so
    the representation is unique; eps^4 never appears (it reduces through
    eps^4 = -1 - eps - eps^2 - eps^3).
    """

    z0: int
    z1: int
    z2: int
    z3: int

    def coords(self) -> tuple[int, int, int, int]:
        return (self.z0, self.z1, self.z2, self.z3)

    def is_zero(self) -> bool:
        return self.z0 == 0 and self.z1 == 0 and self.z2 == 0 and self.z3 == 0

    def __add__(self, other: "CycloPoint") -> "CycloPoint":
        return CycloPoint(self.z0 + other.z0, self.z1 + other.z1,
                          self.z2 + other.z2, self.z3 + other.z3)

    def __sub__(self, other: "CycloPoint") -> "CycloPoint":
        return CycloPoint(self.z0 - other.z0, self.z1 - other.z1,
                          self.z2 - other.z2, self.z3 - other.z3)

    def __neg__(self) -> "CycloPoint":
        return CycloPoint(-self.z0, -self.z1, -self.z2, -self.z3)

    def __mul__(self, other: "CycloPoint | GoldenInt | int") -> "CycloPoint":
        if isinstance(other, CycloPoint):
            c = _mul5((self.z0, self.z1, self.z2, self.z3, 0),
                      (other.z0, other.z1, other.z2, other.z3, 0))
            w = c[4]
            return CycloPoint(c[0] - w, c[1] - w, c[2] - w, c[3] - w)
        if isinstance(other, GoldenInt):
            return self * other.a + (self * TAU_C) * other.b
        if isinstance(other, int):
            return CycloPoint(self.z0 * other, self.z1 * other,
                              self.z2 * other, self.z3 * other)
        return NotImplemented

    def __rmul__(self, other: "GoldenInt | int") -> "CycloPoint":
        return self.__mul__(other)

    def rotate72(self) -> "CycloPoint":
        """Rotation by 72 degrees about the origin (multiplication by eps)."""
        z0, z1, z2, z3 = self.z0, self.z1, self.z2, self.z3
        return CycloPoint(-z3, z0 - z3, z1 - z3, z2 - z3)

    def rotate36(self) -> "CycloPoint":
        """Rotation by 36 degrees (multiplication by -eps^3)."""
        return self * EPS1

    def conj(self) -> "CycloPoint":
        """Complex conjugation eps^k -> eps^(5-k), reduced to the 4-basis."""
        z0, z1, z2, z3 = self.z0, self.z1, self.z2, self.z3
        return CycloPoint(z0 - z1, -z1, z3 - z1, z2 - z1)

    def sq_norm(self) -> GoldenInt:
        """Exact squared length |p|^2 = p * conj(p) as a GoldenInt."""
        return GoldenInt(*sq_norm_ab((self.z0, self.z1, self.z2, self.z3)))

    def real2(self) -> GoldenInt:
        """Twice the real part of the embedded value, exactly."""
        return GoldenInt(2 * self.z0 - self.z1,
                         self.z1 - self.z2 - self.z3)

    def imag_by_sin36(self) -> GoldenInt:
        """The imaginary part divided by sin(36 deg), exactly."""
        return GoldenInt(self.z2 - self.z3, self.z1)

    def embed(self) -> tuple[float, float]:
        z = self.coords()
        x = z[0] + z[1] * _COSK[1] + z[2] * _COSK[2] + z[3] * _COSK[3]
        y = z[1] * _SINK[1] + z[2] * _SINK[2] + z[3] * _SINK[3]
        return (x, y)

    def __pow__(self, k: int) -> "CycloPoint":
        if k < 0:
            raise ValueError("negative powers of CycloPoint are not defined")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __str__(self) -> str:
        return f"({self.z0},{self.z1},{self.z2},{self.z3})"


ZERO = CycloPoint(0, 0, 0, 0)
ONE = CycloPoint(1, 0, 0, 0)
EPS = CycloPoint(0, 1, 0, 0)
# -eps^3 = exp(i*pi/5), the 36-degree rotation; its square is eps.
EPS1 = CycloPoint(0, 0, 0, -1)
# tau as a point of Z[eps]: tau = -(eps^2 + eps^3) = 2*cos(36 deg).
TAU_C = CycloPoint(0, 0, -1, -1)
# The ten rotations by 36k degrees, ROT36[k] = EPS1**k = (-1)^k eps^(3k mod 5).
ROT36 = (
    CycloPoint(1, 0, 0, 0), CycloPoint(0, 0, 0, -1), CycloPoint(0, 1, 0, 0),
    CycloPoint(1, 1, 1, 1), CycloPoint(0, 0, 1, 0), CycloPoint(-1, 0, 0, 0),
    CycloPoint(0, 0, 0, 1), CycloPoint(0, -1, 0, 0), CycloPoint(-1, -1, -1, -1),
    CycloPoint(0, 0, -1, 0),
)


def sq_norm_ab(z: Sequence[int]) -> tuple[int, int]:
    """|z|^2 = a + b*tau for the coordinates z of a point, as (a, b).

    Closed form of z * conj(z): with s1 = z0z1 + z1z2 + z2z3 and
    s2 = z0z2 + z1z3 + z0z3, |z|^2 = (z0^2+z1^2+z2^2+z3^2 - s1)
    + (s1 - s2)*tau.
    """
    z0, z1, z2, z3 = z
    s1 = z0 * z1 + z1 * z2 + z2 * z3
    s2 = z0 * z2 + z1 * z3 + z0 * z3
    return (z0 * z0 + z1 * z1 + z2 * z2 + z3 * z3 - s1, s1 - s2)


def cross_ab(u: Sequence[int], v: Sequence[int]) -> tuple[int, int]:
    """The cross product of the points with coordinates u, v divided by
    sin(36 deg), a + b*tau, as (a, b).

    The cross product is Im(conj(u) * v) = sin(36 deg) * (a + b*tau), a
    fixed bilinear form in the coordinates, evaluated here in closed form.
    """
    u0, u1, u2, u3 = u
    v0, v1, v2, v3 = v
    return (u0 * v2 + u1 * v3 + u3 * v0 - u0 * v3 - u2 * v0 - u3 * v1,
            u0 * v1 + u1 * v2 + u2 * v3 - u1 * v0 - u2 * v1 - u3 * v2)


def cross_sign(u: CycloPoint, v: CycloPoint) -> int:
    """Exact sign of the cross product of the embedded vectors u, v."""
    return golden_sign(*cross_ab((u.z0, u.z1, u.z2, u.z3), (v.z0, v.z1, v.z2, v.z3)))


def dot2(u: CycloPoint, v: CycloPoint) -> GoldenInt:
    """Twice the Euclidean dot product of embedded u, v, exactly."""
    return (u.conj() * v).real2()


@dataclass(frozen=True, slots=True)
class LinearVerdict:
    """Outcome of an integer-linear independence test."""

    independent: bool
    relation: tuple[int, ...] | None = None


def int_lin_independent(vectors: Sequence[Sequence[int]]) -> LinearVerdict:
    """Decide integer-linear independence of a list of integer vectors.

    Returns ``independent`` when the only integer combination summing to
    zero is trivial; otherwise returns one nonzero integer relation c with
    sum(c_i * v_i) = 0, verified by substitution before returning.

    Integer dependence of integer vectors coincides with rational
    dependence (scale a rational relation by the common denominator), so
    exact elimination over Fraction decides it.
    """
    if not vectors:
        raise ValueError("need at least one vector")
    dim = len(vectors[0])
    if any(len(v) != dim for v in vectors):
        raise ValueError("vectors must share one length")

    n = len(vectors)
    # Columns of m are the input vectors; a kernel vector of m is a relation.
    m = [[Fraction(vectors[j][i]) for j in range(n)] for i in range(dim)]

    pivot_of_col: dict[int, int] = {}
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, dim) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(dim):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[row])]
        pivot_of_col[col] = row
        row += 1
        if row == dim:
            break

    free = [c for c in range(n) if c not in pivot_of_col]
    if not free:
        return LinearVerdict(independent=True)

    # Back-substitute the first free column into a kernel vector.
    f0 = free[0]
    rel_q = [Fraction(0)] * n
    rel_q[f0] = Fraction(1)
    for col, r in pivot_of_col.items():
        rel_q[col] = -m[r][f0]
    denom = math.lcm(*(q.denominator for q in rel_q))
    rel = tuple(int(q * denom) for q in rel_q)
    g = math.gcd(*rel)
    if g > 1:
        rel = tuple(c // g for c in rel)

    check = [0] * dim
    for c, v in zip(rel, vectors):
        for i in range(dim):
            check[i] += c * v[i]
    if any(check) or not any(rel):
        raise ArithmeticError("kernel extraction failed verification")
    return LinearVerdict(independent=False, relation=rel)
