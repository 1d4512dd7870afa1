"""The 10-root system at 36-degree spacing and its reflection group.

Matrices are stored over ``GoldenInt`` in the row-image layout: row 0 holds
the coordinates of the image of the first simple root ``a``, row 1 the
image of the second simple root ``b``.  A coordinate vector therefore
transforms as ``x -> x @ M`` (row vector times matrix), and composing maps
"first M, then N" multiplies as ``M @ N``.

The inner product is kept doubled so every Gram value stays inside the
golden ring: 2(a,a) = 2(b,b) = 2 and 2(a,b) = -tau (the simple roots meet
at 144 degrees).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .exact import CycloPoint, GoldenInt

__all__ = [
    "Mat2G",
    "RootVec",
    "simple_reflections",
    "reflect_in_root",
    "root_system",
    "group_closure",
    "closure_with_words",
    "check_root_axioms",
    "check_reflection_conjugacy",
    "rank4_rotation",
    "RootAxiomReport",
    "ConjugacyReport",
    "GroupClosureError",
]

_ZERO = GoldenInt(0, 0)
_ONE = GoldenInt(1, 0)
_TWO = GoldenInt(2, 0)
_TAU = GoldenInt(0, 1)


class GroupClosureError(RuntimeError):
    """Raised when a multiplicative closure exceeds its size bound."""


@dataclass(frozen=True, slots=True)
class RootVec:
    """Root c_a * a + c_b * b in the simple-root basis."""

    ca: GoldenInt
    cb: GoldenInt

    def __neg__(self) -> "RootVec":
        return RootVec(-self.ca, -self.cb)

    def pair2(self, other: "RootVec") -> GoldenInt:
        """Doubled inner product 2(x, y), exact in the golden ring."""
        return (self.ca * other.ca * 2 + self.cb * other.cb * 2
                - (self.ca * other.cb + self.cb * other.ca) * _TAU)

    def is_unit(self) -> bool:
        return self.pair2(self) == _TWO

    def parallel_to(self, other: "RootVec") -> bool:
        return self.ca * other.cb == self.cb * other.ca

    def __str__(self) -> str:
        return f"({self.ca}, {self.cb})"


@dataclass(frozen=True, slots=True)
class Mat2G:
    """2x2 matrix over GoldenInt (row i = image of simple root i)."""

    m00: GoldenInt
    m01: GoldenInt
    m10: GoldenInt
    m11: GoldenInt

    @classmethod
    def identity(cls) -> "Mat2G":
        return cls(_ONE, _ZERO, _ZERO, _ONE)

    def __matmul__(self, other: "Mat2G") -> "Mat2G":
        return Mat2G(
            self.m00 * other.m00 + self.m01 * other.m10,
            self.m00 * other.m01 + self.m01 * other.m11,
            self.m10 * other.m00 + self.m11 * other.m10,
            self.m10 * other.m01 + self.m11 * other.m11,
        )

    def det(self) -> GoldenInt:
        return self.m00 * self.m11 - self.m01 * self.m10

    def inverse(self) -> "Mat2G":
        d = self.det()
        adj = Mat2G(self.m11, -self.m01, -self.m10, self.m00)
        if d == _ONE:
            return adj
        if d == -_ONE:
            return Mat2G(-adj.m00, -adj.m01, -adj.m10, -adj.m11)
        raise ZeroDivisionError("matrix determinant is not a unit")

    def apply_root(self, r: RootVec) -> RootVec:
        """Image of a root: row vector times matrix."""
        return RootVec(r.ca * self.m00 + r.cb * self.m10,
                       r.ca * self.m01 + r.cb * self.m11)

    def power(self, k: int) -> "Mat2G":
        out = Mat2G.identity()
        base = self
        for _ in range(k):
            out = out @ base
        return out

    def sort_key(self):
        return tuple((g.a, g.b) for g in (self.m00, self.m01, self.m10, self.m11))

    def __str__(self) -> str:
        return f"[{self.m00} {self.m01}; {self.m10} {self.m11}]"


def simple_reflections() -> tuple[Mat2G, Mat2G]:
    """The two generating reflections in the simple roots a and b."""
    s_a = Mat2G(-_ONE, _ZERO, _TAU, _ONE)
    s_b = Mat2G(_ONE, _TAU, _ZERO, -_ONE)
    return s_a, s_b


def root_system() -> tuple[RootVec, ...]:
    """All 10 roots: +-a, +-b, +-(a + tau b), +-(b + tau a), +-tau(a + b)."""
    positives = (
        RootVec(_ONE, _ZERO),
        RootVec(_ZERO, _ONE),
        RootVec(_ONE, _TAU),
        RootVec(_TAU, _ONE),
        RootVec(_TAU, _TAU),
    )
    return positives + tuple(-r for r in positives)


def reflect_in_root(r: RootVec) -> Mat2G:
    """Reflection matrix across the mirror orthogonal to a unit root.

    With 2(r,r) = 2 the reflection x -> x - [2(r,x)/(r,r)] r has golden
    coefficients 2(r,x), so the matrix stays inside the ring.
    """
    if not r.is_unit():
        raise ValueError(f"root {r} is not unit length (2(r,r) != 2)")
    a = RootVec(_ONE, _ZERO)
    b = RootVec(_ZERO, _ONE)
    da = r.pair2(a)
    db = r.pair2(b)
    return Mat2G(
        _ONE - da * r.ca, -da * r.cb,
        -db * r.ca, _ONE - db * r.cb,
    )


def group_closure(generators: Iterable[Mat2G], bound: int = 1000) -> frozenset[Mat2G]:
    """The group generated by invertible matrices of finite order; see
    ``closure_with_words``."""
    return frozenset(closure_with_words(*generators, bound=bound).values())


def closure_with_words(*generators: Mat2G, bound: int = 1000) -> dict[str, Mat2G]:
    """Breadth-first closure from the identity, each element under its first
    shortest word in the generators' letters a, b, ... ("1" for the
    identity), in (length, word) order.  Letters apply left to right ("ab"
    means a first, then b), as the row-vector product does.  Raises
    GroupClosureError beyond `bound` elements: runaway growth means the
    generators do not generate a small finite group."""
    seen = {Mat2G.identity(): ""}
    queue = [Mat2G.identity()]
    while queue:
        nxt = []
        for m in queue:
            for k, gen in enumerate(generators):
                p = m @ gen
                if p not in seen:
                    seen[p] = seen[m] + chr(ord("a") + k)
                    nxt.append(p)
            if len(seen) > bound:
                raise GroupClosureError(
                    f"closure exceeded {bound} elements; wrong generators?")
        queue = nxt
    return {word or "1": m for m, word in sorted(seen.items(),
                                                key=lambda kv: (len(kv[1]), kv[1]))}


@dataclass(frozen=True, slots=True)
class RootAxiomReport:
    r1_ok: bool
    r2_ok: bool
    r1_witness: str | None = None
    r2_witness: str | None = None

    @property
    def ok(self) -> bool:
        return self.r1_ok and self.r2_ok


def check_root_axioms(roots: Sequence[RootVec]) -> RootAxiomReport:
    """Verify R1 (only +-r is parallel to r) and R2 (reflections permute
    the root set), exactly.

    R2 is checked with the reflections of the unit roots; a non-unit root
    necessarily has a shorter parallel companion and is already an R1
    failure.
    """
    root_set = set(roots)
    r1_ok, r1_witness = True, None
    for r in roots:
        parallel = {s for s in roots if r.parallel_to(s)}
        if parallel != {r, -r}:
            r1_ok, r1_witness = False, f"R1 fails at {r}: parallel set {sorted(str(p) for p in parallel)}"
            break
    r2_ok, r2_witness = True, None
    for r in roots:
        if not r.is_unit():
            continue
        refl = reflect_in_root(r)
        image = {refl.apply_root(s) for s in roots}
        if image != root_set:
            missing = sorted(str(s) for s in image - root_set)
            r2_ok, r2_witness = False, f"R2 fails for reflection in {r}: image adds {missing}"
            break
    return RootAxiomReport(r1_ok, r2_ok, r1_witness, r2_witness)


@dataclass(frozen=True, slots=True)
class ConjugacyReport:
    ok: bool
    checked: int
    witness: str | None = None


def check_reflection_conjugacy(group: Iterable[Mat2G],
                               roots: Sequence[RootVec]) -> ConjugacyReport:
    """Verify that conjugating a root reflection tracks the moved root.

    In the row-vector layout the classical statement t S_r t^-1 = S_(t r)
    reads, for every group element w and root r,

        w^-1 @ reflect_in_root(r) @ w == reflect_in_root(r applied to w)

    which quantified over the whole group is the same family of identities.
    """
    checked = 0
    for w in sorted(group, key=Mat2G.sort_key):
        try:
            w_inv = w.inverse()
        except ZeroDivisionError:
            return ConjugacyReport(False, checked, f"w={w}: not invertible over the ring")
        for r in roots:
            checked += 1
            moved = w.apply_root(r)
            if not moved.is_unit():
                return ConjugacyReport(False, checked,
                                       f"w={w}, r={r}: image {moved} is not unit length")
            lhs = w_inv @ reflect_in_root(r) @ w
            rhs = reflect_in_root(moved)
            if lhs != rhs:
                return ConjugacyReport(False, checked,
                                       f"w={w}, r={r}: {lhs} != {rhs}")
    return ConjugacyReport(True, checked)


def rank4_rotation(z: Sequence[int]) -> tuple[int, int, int, int]:
    """72-degree rotation of quasilattice coordinates: ``CycloPoint.rotate72``."""
    return CycloPoint(*z).rotate72().coords()
