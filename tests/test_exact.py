import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fivefold.exact import (
    _CONJ,
    EPS,
    EPS1,
    ONE,
    ROT36,
    TAU_C,
    CycloPoint,
    GoldenInt,
    _fold,
    _golden_keys,
    _golden_signs,
    _times,
    cross_ab,
    cross_sign,
    golden_sign,
    int_lin_independent,
    sq_norm_ab,
)

TAU = GoldenInt(0, 1)

small_ints = st.integers(min_value=-50, max_value=50)
goldens = st.builds(GoldenInt, small_ints, small_ints)
cyclos = st.builds(CycloPoint, small_ints, small_ints, small_ints, small_ints)


def oracle_cyclo_mul(p, q):
    """Multiply in Z[x]/(x^5-1), then eliminate x^4 via 1+x+x^2+x^3+x^4."""
    c = [0] * 5
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            c[(i + j) % 5] += a * b
    return tuple(c[k] - c[4] for k in range(4))


class TestGolden:
    def test_tau_squared(self):
        assert TAU * TAU == GoldenInt(1, 1)

    def test_mul_identity(self):
        x = GoldenInt(7, -3)
        assert GoldenInt(1, 0) * x == x

    def test_tau_fourth(self):
        assert TAU ** 4 == GoldenInt(2, 3)

    def test_conj_examples(self):
        assert TAU.conj() == GoldenInt(1, -1)
        assert GoldenInt(1, 0).conj() == GoldenInt(1, 0)
        # substitute 1 - tau for tau in 2 + 3*tau and recollect
        assert GoldenInt(2, 3).conj() == GoldenInt(5, -3)

    def test_embed_examples(self):
        assert TAU.embed() == pytest.approx(1.6180339887498949, abs=0)
        assert GoldenInt(0, 0).embed() == 0.0
        assert GoldenInt(2, 3).embed() == pytest.approx(6.8541019662496845, abs=1e-15)

    @given(goldens, goldens, goldens)
    def test_ring_laws(self, x, y, z):
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x
        assert x + y == y + x

    @given(goldens, goldens)
    def test_embed_is_ring_hom(self, x, y):
        lhs = (x * y).embed()
        rhs = x.embed() * y.embed()
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    @given(goldens)
    def test_conj_involution_and_norm(self, x):
        assert x.conj().conj() == x
        n = x * x.conj()
        assert n.b == 0
        assert n.a == x.norm()

    @given(goldens)
    def test_sign_matches_embedding(self, x):
        e = x.embed()
        if abs(e) > 1e-6:
            assert x.sign() == (1 if e > 0 else -1)
        if x == GoldenInt(0, 0):
            assert x.sign() == 0

    def test_pow_negative(self):
        assert TAU ** -1 == GoldenInt(-1, 1)
        assert TAU ** -1 * TAU == GoldenInt(1, 0)
        assert TAU ** -4 * TAU ** 4 == GoldenInt(1, 0)
        with pytest.raises(ZeroDivisionError):
            GoldenInt(2, 0).inverse()

    def test_order(self):
        assert GoldenInt(2, -1) > 0
        assert GoldenInt(1, -1) < 0
        assert TAU > GoldenInt(1, 0)


class TestCyclo:
    def test_eps_powers_cycle(self):
        assert EPS ** 2 * EPS ** 3 == ONE
        assert EPS ** 3 * EPS == CycloPoint(-1, -1, -1, -1)

    def test_tau_c_squares_to_one_plus_tau(self):
        want = ONE + TAU_C  # 1 + tau in Z[eps]
        assert TAU_C * TAU_C == want
        assert oracle_cyclo_mul(TAU_C.coords(), TAU_C.coords()) == want.coords()

    @given(cyclos, cyclos)
    def test_mul_against_polynomial_oracle(self, p, q):
        assert (p * q).coords() == oracle_cyclo_mul(p.coords(), q.coords())

    @given(cyclos, cyclos, cyclos)
    def test_ring_laws(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p

    def test_rotate72_examples(self):
        assert ONE.rotate72() == EPS
        assert CycloPoint(0, 0, 0, 1).rotate72() == CycloPoint(-1, -1, -1, -1)

    @given(cyclos)
    def test_rotate72_is_mul_by_eps_and_order_5(self, p):
        assert p.rotate72() == p * EPS
        q = p
        for _ in range(5):
            q = q.rotate72()
        assert q == p

    @given(cyclos)
    def test_rotate36_squared_is_rotate72(self, p):
        assert p.rotate36().rotate36() == p.rotate72()

    def test_conj_examples(self):
        assert ONE.conj() == ONE
        assert EPS.conj() == CycloPoint(-1, -1, -1, -1)
        assert TAU_C.conj() == TAU_C

    @given(cyclos)
    def test_conj_involution_and_mirror(self, p):
        assert p.conj().conj() == p
        x, y = p.embed()
        cx, cy = p.conj().embed()
        assert cx == pytest.approx(x, rel=1e-9, abs=1e-9)
        assert cy == pytest.approx(-y, rel=1e-9, abs=1e-9)

    def test_sq_norm_examples(self):
        assert EPS.sq_norm() == GoldenInt(1, 0)
        assert CycloPoint(1, 1, 0, 0).sq_norm() == GoldenInt(1, 1)
        assert TAU_C.sq_norm() == GoldenInt(1, 1)

    def test_sq_norm_cross_check_numeric(self):
        p = CycloPoint(1, 1, 0, 0)
        x, y = p.embed()
        assert p.sq_norm().embed() == pytest.approx(2 + 2 * math.cos(math.radians(72)), abs=1e-12)
        assert p.sq_norm().embed() == pytest.approx(x * x + y * y, abs=1e-12)

    @given(cyclos)
    def test_sq_norm_properties(self, p):
        n = p.sq_norm()
        assert n == p.rotate72().sq_norm()
        assert n.embed() >= 0.0
        assert (n.sign() == 0) == p.is_zero()
        x, y = p.embed()
        assert n.embed() == pytest.approx(x * x + y * y, rel=1e-9, abs=1e-12)

    def test_embed_examples(self):
        assert ONE.embed() == (1.0, 0.0)
        x, y = EPS.embed()
        assert x == pytest.approx(0.30901699437494745, abs=1e-15)
        assert y == pytest.approx(0.9510565162951535, abs=1e-15)
        tx, ty = TAU_C.embed()
        assert tx == pytest.approx(TAU.embed(), abs=1e-12)
        assert ty == pytest.approx(0.0, abs=1e-12)

    @given(cyclos, cyclos)
    def test_embed_additive(self, p, q):
        px, py = p.embed()
        qx, qy = q.embed()
        sx, sy = (p + q).embed()
        assert sx == pytest.approx(px + qx, rel=1e-9, abs=1e-9)
        assert sy == pytest.approx(py + qy, rel=1e-9, abs=1e-9)

    @given(cyclos)
    def test_embed_rotation_equivariant(self, p):
        c, s = math.cos(2 * math.pi / 5), math.sin(2 * math.pi / 5)
        x, y = p.embed()
        rx, ry = p.rotate72().embed()
        assert rx == pytest.approx(c * x - s * y, rel=1e-9, abs=1e-9)
        assert ry == pytest.approx(s * x + c * y, rel=1e-9, abs=1e-9)

    @given(cyclos, st.builds(GoldenInt, small_ints, small_ints))
    def test_golden_scaling(self, p, g):
        q = p * g
        x, y = p.embed()
        qx, qy = q.embed()
        assert qx == pytest.approx(g.embed() * x, rel=1e-9, abs=1e-6)
        assert qy == pytest.approx(g.embed() * y, rel=1e-9, abs=1e-6)

    @given(cyclos, cyclos)
    def test_exact_cross_and_dot(self, u, v):
        ux, uy = u.embed()
        vx, vy = v.embed()
        cr = ux * vy - uy * vx
        if abs(cr) > 1e-6:
            assert cross_sign(u, v) == (1 if cr > 0 else -1)
        d = (u.conj() * v).real2().embed()  # twice the dot product
        assert d == pytest.approx(2 * (ux * vx + uy * vy), rel=1e-9, abs=1e-6)


wide_ints = st.integers(min_value=-300, max_value=300)
wide_cyclos = st.builds(CycloPoint, wide_ints, wide_ints, wide_ints, wide_ints)


class TestClosedFormKernels:
    """sq_norm and cross_sign are closed forms of conj-products in Z[eps]."""

    @given(wide_cyclos)
    def test_sq_norm_is_p_times_conj(self, p):
        m = p * p.conj()
        assert m.z1 == 0 and m.z2 == m.z3  # real: in Z[tau]
        assert p.sq_norm() == GoldenInt(m.z0, -m.z2)

    @given(wide_cyclos, wide_cyclos)
    def test_cross_sign_is_sign_of_conj_product(self, u, v):
        assert cross_sign(u, v) == (u.conj() * v).imag_by_sin36().sign()

    @given(wide_cyclos, st.integers(min_value=-5, max_value=5), st.integers(0, 9))
    def test_cross_sign_zero_exactly_on_collinear(self, u, k, turn):
        assert cross_sign(u, u * k) == 0
        if turn in (0, 5) or u.is_zero():
            assert cross_sign(u, u * EPS1 ** turn) == 0
        else:
            assert cross_sign(u, u * EPS1 ** turn) == (1 if turn < 5 else -1)

    @given(wide_cyclos, wide_cyclos)
    def test_coordinate_forms_match_point_forms(self, u, v):
        assert cross_ab(u.coords(), v.coords()) == (
            (u.conj() * v).imag_by_sin36().a, (u.conj() * v).imag_by_sin36().b)
        assert GoldenInt(*sq_norm_ab(u.coords())) == u.sq_norm()

    def test_rotation_table(self):
        assert ROT36 == tuple(EPS1 ** k for k in range(10))

    @given(goldens)
    def test_sign_matches_embedding(self, g):
        value = g.embed()
        assert g.sign() == (value > 0) - (value < 0)


class TestIntegerIndependence:
    def test_basis_independent(self):
        rows = [
            (1, 0, 0, 0, 0),
            (0, 1, 0, 0, 0),
            (0, 0, 1, 0, 0),
            (0, 0, 0, 1, 0),
        ]
        assert int_lin_independent(rows).independent

    def test_five_roots_dependent(self):
        rows = [
            (1, 0, 0, 0, 0),
            (0, 1, 0, 0, 0),
            (0, 0, 1, 0, 0),
            (0, 0, 0, 1, 0),
            (-1, -1, -1, -1, 0),  # eps^4 in the 4-basis
        ]
        verdict = int_lin_independent(rows)
        assert not verdict.independent
        rel = verdict.relation
        assert rel is not None
        norm = rel if rel[0] > 0 else tuple(-c for c in rel)
        assert norm == (1, 1, 1, 1, 1)

    def test_zero_vector(self):
        verdict = int_lin_independent([(0, 0, 0, 0, 0)])
        assert not verdict.independent
        assert verdict.relation in ((1,), (-1,))

    def test_relation_is_verified(self):
        verdict = int_lin_independent([(2, 4), (1, 2), (3, 5)])
        assert not verdict.independent
        rel = verdict.relation
        assert sum(c * v for c, v in zip(rel, [2, 1, 3])) == 0
        assert sum(c * v for c, v in zip(rel, [4, 2, 5])) == 0

    def test_rejects_empty_and_ragged(self):
        with pytest.raises(ValueError):
            int_lin_independent([])
        with pytest.raises(ValueError):
            int_lin_independent([(1, 2), (1,)])

    @given(st.lists(st.tuples(small_ints, small_ints, small_ints), min_size=4, max_size=6))
    def test_more_vectors_than_dims_always_dependent(self, vecs):
        verdict = int_lin_independent(vecs)
        assert not verdict.independent
        rel = verdict.relation
        for i in range(3):
            assert sum(c * v[i] for c, v in zip(rel, vecs)) == 0


# rows of coordinates, within int64 or past it
int64_rows = st.lists(st.tuples(*[st.integers(-2 ** 40, 2 ** 40)] * 4), min_size=1, max_size=6)
wide_rows = st.lists(st.tuples(*[st.integers(-2 ** 80, 2 ** 80)] * 4), min_size=1, max_size=6)


def as_array(rows):
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


class TestArrayArithmetic:
    """The array primitives agree with the scalar methods, row by row."""

    @given(int64_rows | wide_rows)
    def test_conj_matrix_is_conj(self, rows):
        got = (as_array(rows) @ np.array(_CONJ)).tolist()
        assert got == [list(CycloPoint(*row).conj().coords()) for row in rows]

    @given(int64_rows | wide_rows, st.integers(0, 20))
    def test_times_rot36_power_is_repeated_rotate36(self, rows, k):
        want = []
        for row in rows:
            p = CycloPoint(*row)
            for _ in range(k):
                p = p.rotate36()
            want.append(list(p.coords()))
        assert _times(as_array(rows), EPS1 ** k).tolist() == want

    @given(int64_rows | wide_rows, cyclos)
    def test_times_is_the_product(self, rows, factor):
        got = _times(as_array(rows), factor).tolist()
        assert got == [list((CycloPoint(*row) * factor).coords()) for row in rows]

    @given(st.lists(st.tuples(st.integers(-2 ** 20, 2 ** 20), st.integers(-2 ** 20, 2 ** 20)),
                    min_size=1, max_size=8))
    def test_golden_signs(self, pairs):
        a, b = np.array(pairs, dtype=np.int64).T
        assert _golden_signs(a, b).tolist() == [golden_sign(x, y) for x, y in pairs]


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@st.composite
def golden_pair_pairs(draw):
    """Two (a, b) pairs: any two, or two whose values a + b*tau differ by
    -1, 0 or 1 times (1 - tau)^n = F(n+1) - F(n)*tau, as little as tau^-110.
    The bounds put keys about their switch from int64 to Python ints, or
    far past it."""
    bound = draw(st.sampled_from([2 ** 18, 2 ** 19 - 1, 2 ** 19, 2 ** 20, 2 ** 80]))
    coefficient = st.integers(-bound, bound)
    x = draw(st.tuples(coefficient, coefficient))
    if draw(st.booleans()):
        return x, draw(st.tuples(coefficient, coefficient))
    n, sign = draw(st.integers(0, 110)), draw(st.sampled_from([-1, 0, 1]))
    return x, (x[0] + sign * fibonacci(n + 1), x[1] - sign * fibonacci(n))


class TestGoldenKeys:
    """The exact keys against golden_sign, value by value."""

    @given(golden_pair_pairs())
    def test_keys_order_like_golden_sign(self, pairs):
        (a0, b0), (a1, b1) = pairs
        a, b = as_array(pairs).T
        keys = _golden_keys(a, b)
        reach = max(abs(v) for v in (a0, b0, a1, b1))
        assert (keys.dtype == np.int64) == (3 * max(1, reach).bit_length() + 5 <= 62)
        k0, k1 = keys.tolist()
        assert (k0 > k1) - (k0 < k1) == golden_sign(a0 - a1, b0 - b1)
        assert (k0 == k1) == (pairs[0] == pairs[1])


@st.composite
def folded_rows(draw):
    """(columns, radices, rows): 1 to 6 rows of a lead column and 1 to 4
    later columns, each later one of index digits (0 to r - 1) or balanced
    digits (|d| <= (r - 1)/2, r odd).  The lead's bound puts the keys' bound
    (max|lead| + 1) * r1 * ... * rn just below, at or just above 2^63, or
    anywhere, the lead reaching past int64 itself."""
    radices, digits = [], []
    for _ in range(draw(st.integers(1, 4))):
        r = draw(st.sampled_from([2, 3]) | st.integers(2, 2 ** 20))
        balanced = r % 2 == 1 and draw(st.booleans())
        radices.append(r)
        digits.append(st.integers(-(r // 2), r // 2) if balanced else st.integers(0, r - 1))
    room = 2 ** 63 // math.prod(radices)  # max|lead| + 1 fits while at most this
    top = draw(st.sampled_from([room - 2, room - 1, room]) | st.integers(0, 2 ** 70))
    top = max(top, 0)
    lead = st.integers(-top, top)
    rows = draw(st.lists(st.tuples(lead, *digits), min_size=1, max_size=6))
    rows[0] = (draw(st.sampled_from([top, -top])), *rows[0][1:])  # one lead at the bound
    columns = [as_array(column) for column in zip(*rows)]
    return columns, radices, rows


class TestFold:
    """The mixed-radix fold against its rows, as Python tuples and ints."""

    @given(folded_rows())
    def test_keys_are_the_mixed_radix_value(self, case):
        columns, radices, rows = case
        keys = _fold(columns, radices)
        want = []
        for lead, *rest in rows:
            key = lead
            for digit, r in zip(rest, radices):
                key = key * r + digit
            want.append(key)
        assert keys.tolist() == want
        top = max(abs(row[0]) for row in rows)
        assert (keys.dtype == np.int64) == ((top + 1) * math.prod(radices) <= 2 ** 63)

    @given(folded_rows())
    def test_keys_order_like_the_rows(self, case):
        columns, radices, rows = case
        keys = _fold(columns, radices).tolist()
        for k0, r0 in zip(keys, rows):
            for k1, r1 in zip(keys, rows):
                assert (k0 < k1) == (r0 < r1)
                assert (k0 == k1) == (r0 == r1)


class TestMixedOperands:
    """GoldenInt takes integers and defers to the other operand for the rest."""

    def test_integers(self):
        assert TAU + 2 == 2 + TAU == GoldenInt(2, 1)
        assert TAU * np.int64(3) == np.int64(3) * TAU == GoldenInt(0, 3)
        assert 1 - TAU == GoldenInt(1, -1)
        assert TAU > np.int8(1) and TAU < 2

    @given(small_ints, small_ints)
    def test_equality_agrees_with_order(self, a, b):
        g = GoldenInt(a, b)
        for n in (a, np.int64(a)):
            assert (g == n) == (n == g) == (g <= n <= g) == (b == 0)
            assert (g != n) == (b != 0)
        assert (hash(g) == hash(a)) if b == 0 else (hash(g) == hash((a, b)))
        assert {GoldenInt(a, 0): "x"}[a] == "x"

    def test_equality_with_anything_else_is_not_implemented(self):
        assert GoldenInt(1, 0).__eq__(1.0) is NotImplemented
        assert GoldenInt(1, 0) != 1.0 and GoldenInt(0, 0) != "0"

    def test_a_point_times_tau_is_its_product(self):
        p = CycloPoint(1, 2, -3, 4)
        assert TAU * p == p * TAU == p * TAU_C

    @pytest.mark.parametrize("op", [
        lambda: TAU + 0.5,
        lambda: 0.5 + TAU,
        lambda: TAU * 1.5,
        lambda: TAU - 0.5,
        lambda: TAU < 0.5,
        lambda: TAU + ONE,
        lambda: ONE + TAU,
        lambda: ONE - TAU,
    ], ids=["add-float", "radd-float", "mul-float", "sub-float", "lt-float",
            "add-point", "point-add", "point-sub"])
    def test_anything_else_is_a_type_error(self, op):
        with pytest.raises(TypeError):
            op()
