"""Exact arithmetic in the golden ring Z[tau] and the rank-4 module Z[eps].

Every metric scalar in this package is a ``GoldenInt`` ``a + b*tau`` with
``tau = (1+sqrt(5))/2``, and every tiling vertex is a ``CycloPoint``
``z0 + z1*eps + z2*eps^2 + z3*eps^3`` with ``eps = exp(2*pi*i/5)``.  Both
types are immutable and all operations are pure, so values can be shared
freely across threads.

Floating point enters only through the ``embed`` methods and ``_embed``;
everything else is integer arithmetic (Python integers never overflow, so
ring results are exact at any size).

Its arithmetic on coordinate arrays serves every layer: the exact product
(``_matrix``, ``_times``), conjugation (``_CONJ``), signs and order keys
(``_golden_signs``, ``_golden_keys``) and the float embedding (``_embed``).
numpy is imported at first use, so importing this module does not load it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

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


def _embed(z0, z1, z2, z3):
    """The point z0 + z1*eps + z2*eps^2 + z3*eps^3 as floats (x, y): one
    sequence of float operations, on integers or coordinate columns alike."""
    return (z0 + z1 * _COS72 + z2 * _COS144 + z3 * _COS144,
            z1 * _SIN72 + z2 * _SIN144 - z3 * _SIN144)


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


def _ring_operator(method):
    """A GoldenInt operator whose other operand is a GoldenInt or an integer
    (int or numpy integer, by ``operator.index``); anything else gets
    NotImplemented, so that Python tries the other operand's method."""
    @wraps(method)
    def operator_(self, other):
        if not isinstance(other, GoldenInt):
            try:
                other = GoldenInt(operator.index(other), 0)
            except TypeError:
                return NotImplemented
        return method(self, other)
    return operator_


@dataclass(frozen=True, slots=True)
class GoldenInt:
    """Element a + b*tau of Z[tau], reduced via tau^2 = tau + 1."""

    a: int
    b: int

    @_ring_operator
    def __add__(self, o: "GoldenInt | int") -> "GoldenInt":
        return GoldenInt(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    @_ring_operator
    def __sub__(self, o: "GoldenInt | int") -> "GoldenInt":
        return GoldenInt(self.a - o.a, self.b - o.b)

    @_ring_operator
    def __rsub__(self, o: "GoldenInt | int") -> "GoldenInt":
        return o - self

    def __neg__(self) -> "GoldenInt":
        return GoldenInt(-self.a, -self.b)

    @_ring_operator
    def __mul__(self, o: "GoldenInt | int") -> "GoldenInt":
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
        return self.inverse() ** -k if k < 0 else _power(self, k, GoldenInt(1, 0))

    def sign(self) -> int:
        """Exact sign of the embedded value."""
        return golden_sign(self.a, self.b)

    @_ring_operator
    def __lt__(self, o: "GoldenInt | int") -> bool:
        return (self - o).sign() < 0

    @_ring_operator
    def __le__(self, o: "GoldenInt | int") -> bool:
        return (self - o).sign() <= 0

    @_ring_operator
    def __gt__(self, o: "GoldenInt | int") -> bool:
        return (self - o).sign() > 0

    @_ring_operator
    def __ge__(self, o: "GoldenInt | int") -> bool:
        return (self - o).sign() >= 0

    def embed(self) -> float:
        return self.a + self.b * PHI

    def __str__(self) -> str:
        return f"{self.a}{self.b:+d}t"

    def __repr__(self) -> str:
        return f"GoldenInt({self.a}, {self.b})"


def _power(base, k: int, one):
    """base^k for k >= 0, by repeated squaring."""
    out = one
    while k:
        if k & 1:
            out = out * base
        base = base * base
        k >>= 1
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
        if not isinstance(other, CycloPoint):
            return NotImplemented
        return CycloPoint(self.z0 + other.z0, self.z1 + other.z1,
                          self.z2 + other.z2, self.z3 + other.z3)

    def __sub__(self, other: "CycloPoint") -> "CycloPoint":
        if not isinstance(other, CycloPoint):
            return NotImplemented
        return CycloPoint(self.z0 - other.z0, self.z1 - other.z1,
                          self.z2 - other.z2, self.z3 - other.z3)

    def __neg__(self) -> "CycloPoint":
        return CycloPoint(-self.z0, -self.z1, -self.z2, -self.z3)

    def __mul__(self, other: "CycloPoint | GoldenInt | int") -> "CycloPoint":
        if isinstance(other, CycloPoint):
            # the product modulo x^5 - 1, then eps^4 = -1 - eps - eps^2 - eps^3
            a0, a1, a2, a3 = self.z0, self.z1, self.z2, self.z3
            b0, b1, b2, b3 = other.z0, other.z1, other.z2, other.z3
            c4 = a1 * b3 + a2 * b2 + a3 * b1
            return CycloPoint(a0 * b0 + a2 * b3 + a3 * b2 - c4, a0 * b1 + a1 * b0 + a3 * b3 - c4,
                              a0 * b2 + a1 * b1 + a2 * b0 - c4,
                              a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 - c4)
        if isinstance(other, GoldenInt):
            return self * other.a + (self * TAU_C) * other.b
        if isinstance(other, int):
            return CycloPoint(self.z0 * other, self.z1 * other,
                              self.z2 * other, self.z3 * other)
        return NotImplemented

    __rmul__ = __mul__

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
        return _embed(self.z0, self.z1, self.z2, self.z3)

    def __pow__(self, k: int) -> "CycloPoint":
        if k < 0:
            raise ValueError("negative powers of CycloPoint are not defined")
        return _power(self, k, ONE)

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


# Complex conjugation as a matrix like _matrix's: row j is conj(eps^j).
_CONJ = ((1, 0, 0, 0), (-1, -1, -1, -1), (0, 0, 0, 1), (0, 0, 1, 0))


@lru_cache(maxsize=8)
def _matrix(factor: CycloPoint) -> tuple[tuple[int, ...], ...]:
    """The 4x4 integer matrix of multiplication by factor: row j is
    eps^j * factor, so z * factor = z @ matrix."""
    rows = [factor]
    for _ in range(3):
        rows.append(rows[-1].rotate72())
    return tuple(row.coords() for row in rows)


def _times(points: np.ndarray, factor: CycloPoint) -> np.ndarray:
    """Each point (a coordinate row) times factor, exactly: in int64 where
    no sum of products can overflow it, else on Python ints (dtype object)."""
    import numpy as np

    matrix = np.array(_matrix(factor), dtype=object)
    reach = max(1, int(points.max(initial=0)), -int(points.min(initial=0)))
    if 4 * max(1, int(abs(matrix).max())) * reach < 2 ** 63:
        return points.astype(np.int64) @ matrix.astype(np.int64)
    return points.astype(object) @ matrix


def _golden_signs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``golden_sign`` of each a + b*tau.  Where a and b have opposite
    signs, that is the sign of a times the sign of the norm a^2 + ab - b^2
    (never 0, tau being irrational); elsewhere it is the sign of a + b."""
    import numpy as np

    mixed = ((a > 0) & (b < 0)) | ((a < 0) & (b > 0))
    return np.where(mixed, np.sign(a) * np.sign(a * a + a * b - b * b), np.sign(a + b))


def _golden_keys(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integer keys that order the values a + b*tau exactly, equal exactly
    where the values are.  For |a|, |b| <= M and k = 2*bitlen(M) + 3, the key
    a*2^k + b*floor(tau*2^k) is within M of 2^k (a + b*tau), and distinct values
    differ by over 1/(3.24 M) (a nonzero integer norm over a conjugate of at
    most 3.24 M), so 2^k > 8 M^2 keeps keys apart.  They are int64 while below
    2^62 (3*bitlen(M) + 5 <= 62), else Python ints."""
    import numpy as np

    bits = max(1, int(abs(a).max(initial=0)), int(abs(b).max(initial=0))).bit_length()
    k = 2 * bits + 3
    tau_k = (2 ** k + math.isqrt(5 * 4 ** k)) // 2  # floor(tau * 2^k)
    dtype = np.int64 if 3 * bits + 5 <= 62 else object
    return a.astype(dtype) * 2 ** k + b.astype(dtype) * tau_k


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
