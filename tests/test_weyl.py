import random

import pytest

from fivefold.exact import CycloPoint, GoldenInt
from fivefold.weyl import (
    GroupClosureError,
    Mat2G,
    RootVec,
    check_reflection_conjugacy,
    check_root_axioms,
    closure_with_words,
    group_closure,
    rank4_rotation,
    reflect_in_root,
    root_system,
    simple_reflections,
)

G = GoldenInt
ZERO, ONE, TAU = G(0, 0), G(1, 0), G(0, 1)
IDENT = Mat2G.identity()


def mat(rows):
    (a, b), (c, d) = rows
    return Mat2G(a, b, c, d)


class TestSimpleReflections:
    def test_entries(self):
        s_a, s_b = simple_reflections()
        assert s_a == mat([[-ONE, ZERO], [TAU, ONE]])
        assert s_b == mat([[ONE, TAU], [ZERO, -ONE]])

    def test_determinants(self):
        s_a, s_b = simple_reflections()
        assert s_a.det() == -ONE
        assert s_b.det() == -ONE

    def test_involutions(self):
        s_a, s_b = simple_reflections()
        assert s_a @ s_a == IDENT
        assert s_b @ s_b == IDENT

    def test_action_on_simple_roots(self):
        s_a, _ = simple_reflections()
        a = RootVec(ONE, ZERO)
        b = RootVec(ZERO, ONE)
        assert s_a.apply_root(a) == RootVec(-ONE, ZERO)
        assert s_a.apply_root(b) == RootVec(TAU, ONE)  # b + tau*a


class TestGroup:
    def test_closure_has_ten_elements(self):
        s_a, s_b = simple_reflections()
        group = group_closure([s_a, s_b])
        assert len(group) == 10

    def test_rotation_powers_match_printed_matrices(self):
        s_a, s_b = simple_reflections()
        rot = s_a @ s_b
        assert rot == mat([[-ONE, -TAU], [TAU, TAU]])
        assert rot.power(2) == mat([[-TAU, -ONE], [ONE, ZERO]])
        assert rot.power(4) == mat([[TAU, TAU], [-TAU, -ONE]])
        assert rot.power(5) == IDENT
        for k in range(1, 5):
            assert rot.power(k) != IDENT

    def test_rotation_cubed_entry_forced_by_group(self):
        # The only order-5 value consistent with rot^2 and rot^4 carries
        # -tau in the lower right corner; rotations of a 5-fold group can
        # never have zero trace, so [[0,1],[-1,0]] cannot lie in the group.
        s_a, s_b = simple_reflections()
        rot = s_a @ s_b
        assert rot.power(3) == mat([[ZERO, ONE], [-ONE, -TAU]])
        stray = mat([[ZERO, ONE], [-ONE, ZERO]])
        assert stray not in group_closure([s_a, s_b])
        assert rot.power(3) @ rot.power(2) == IDENT

    def test_reflection_words_match_printed_matrices(self):
        s_a, s_b = simple_reflections()
        assert s_a @ s_b @ s_a == mat([[-TAU, -TAU], [ONE, TAU]])
        assert s_b @ s_a @ s_b == mat([[TAU, ONE], [-TAU, -TAU]])
        assert (s_a @ s_b).power(4) @ s_a == s_b

    def test_determinant_split(self):
        s_a, s_b = simple_reflections()
        group = group_closure([s_a, s_b])
        dets = [m.det() for m in group]
        assert sum(1 for d in dets if d == ONE) == 5
        assert sum(1 for d in dets if d == -ONE) == 5

    def test_second_presentation_relation(self):
        # The alternative generators: rotation c = s_a s_b and the
        # reflection i = s_b satisfy i c i = c^4.
        s_a, s_b = simple_reflections()
        c = s_a @ s_b
        i = s_b
        assert i @ c @ i == c.power(4)
        assert i @ i == IDENT

    def test_closure_of_identity(self):
        assert group_closure([IDENT]) == frozenset([IDENT])

    def test_closure_bound_raises(self):
        # tau scaling generates an infinite cyclic group
        scale = mat([[TAU, ZERO], [ZERO, TAU]])
        with pytest.raises(GroupClosureError):
            group_closure([scale], bound=50)

    @pytest.mark.parametrize("closure", [
        lambda gen, s_b: group_closure([gen, s_b]),
        lambda gen, s_b: closure_with_words(gen, s_b),
    ], ids=["group_closure", "closure_with_words"])
    def test_a_generator_of_infinite_order_raises(self, closure):
        # one bounded search serves both: tau scaling never closes
        _, s_b = simple_reflections()
        scale = mat([[TAU, ZERO], [ZERO, TAU]])
        with pytest.raises(GroupClosureError, match="closure exceeded 1000 elements"):
            closure(scale, s_b)

    def test_words_cover_group(self):
        s_a, s_b = simple_reflections()
        words = closure_with_words(s_a, s_b)
        assert len(words) == 10
        assert words["1"] == IDENT
        assert set(words.values()) == set(group_closure([s_a, s_b]))


class TestRootSystem:
    def test_ten_roots(self):
        roots = root_system()
        assert len(roots) == 10
        assert len(set(roots)) == 10
        assert RootVec(TAU, TAU) in roots

    def test_all_unit(self):
        two = G(2, 0)
        for r in root_system():
            assert r.pair2(r) == two

    def test_reflect_in_simple_roots(self):
        s_a, s_b = simple_reflections()
        assert reflect_in_root(RootVec(ONE, ZERO)) == s_a
        assert reflect_in_root(RootVec(ZERO, ONE)) == s_b

    def test_reflect_in_long_diagonal_root(self):
        r = RootVec(TAU, TAU)
        m = reflect_in_root(r)
        assert m @ m == IDENT
        assert m.apply_root(r) == -r
        assert m.det() == -ONE

    def test_reflect_rejects_non_unit(self):
        with pytest.raises(ValueError):
            reflect_in_root(RootVec(G(2, 0), ZERO))

    def test_group_preserves_roots(self):
        s_a, s_b = simple_reflections()
        group = group_closure([s_a, s_b])
        roots = set(root_system())
        for w in group:
            assert {w.apply_root(r) for r in roots} == roots

    def test_group_preserves_gram(self):
        s_a, s_b = simple_reflections()
        group = group_closure([s_a, s_b])
        roots = root_system()
        for w in group:
            for x in roots[:4]:
                for y in roots[:4]:
                    assert w.apply_root(x).pair2(w.apply_root(y)) == x.pair2(y)


class TestAxioms:
    def test_axioms_pass(self):
        report = check_root_axioms(root_system())
        assert report.ok
        assert report.r1_witness is None and report.r2_witness is None

    def test_missing_root_breaks_r2(self):
        roots = root_system()[1:]
        report = check_root_axioms(roots)
        assert not report.r2_ok
        assert report.r2_witness is not None

    def test_parallel_duplicate_breaks_r1(self):
        roots = root_system() + (RootVec(G(2, 0), ZERO),)
        report = check_root_axioms(roots)
        assert not report.r1_ok
        assert "R1" in report.r1_witness


class TestConjugacy:
    def test_all_hundred_pairs(self):
        s_a, s_b = simple_reflections()
        group = group_closure([s_a, s_b])
        report = check_reflection_conjugacy(group, root_system())
        assert report.ok
        assert report.checked == 100

    def test_identity_trivial(self):
        report = check_reflection_conjugacy([IDENT], root_system())
        assert report.ok

    def test_simple_reflection_example(self):
        # Reflecting b and conjugating by s_a lands on the root b + tau*a.
        s_a, s_b = simple_reflections()
        b = RootVec(ZERO, ONE)
        moved = s_a.apply_root(b)
        assert moved == RootVec(TAU, ONE)
        assert s_a @ s_b @ s_a == reflect_in_root(moved)

    def test_failure_is_reported(self):
        scale = mat([[TAU, ZERO], [ZERO, TAU]])
        report = check_reflection_conjugacy([scale], root_system())
        assert not report.ok
        assert report.witness is not None


class TestRank4Rotation:
    def test_examples(self):
        assert rank4_rotation((1, 0, 0, 0)) == (0, 1, 0, 0)
        assert rank4_rotation((0, 0, 0, 1)) == (-1, -1, -1, -1)

    def test_order_five(self):
        z = (3, -2, 7, 1)
        out = z
        for _ in range(5):
            out = rank4_rotation(out)
        assert out == z

    def test_agrees_with_cyclo_rotation(self):
        rng = random.Random(20260808)
        for _ in range(1000):
            z = tuple(rng.randint(-100, 100) for _ in range(4))
            assert rank4_rotation(z) == CycloPoint(*z).rotate72().coords()
