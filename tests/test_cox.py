import random
from fractions import Fraction

import pytest

from toric_linsys import (
    CoxAutomorphismStep,
    DemazureRoot,
    apply_root_step,
    build_presentation,
    divisor_class,
    irrelevant_generators,
    move_torus_point_to_invariant,
    section_polytope,
    to_standard_form,
    transitive_cones,
)
from toric_linsys.catalog import (
    hirzebruch_fan,
    p1_power_fan,
    projective_space_fan,
)
from toric_linsys import cox
from toric_linsys.linalg import dot

CATALOG = lambda: (projective_space_fan(2), projective_space_fan(3),
                   hirzebruch_fan(1), hirzebruch_fan(2),
                   p1_power_fan(2), p1_power_fan(3))


def presentation(fan):
    return build_presentation(transitive_cones(fan))


def test_presentation_p2():
    cp = presentation(projective_space_fan(2))
    assert cp.ray_matrix == ((-1, 0, 1), (0, -1, 1))
    assert cp.grading_matrix == ((1, 1, 1),)
    assert cp.class_rank == 1


def test_presentation_f1():
    cp = presentation(hirzebruch_fan(1))
    assert cp.ray_matrix == ((-1, 0, 1, 0), (0, -1, 1, 1))
    assert cp.grading_matrix == ((1, 1, 1, 0), (0, 1, 0, 1))
    assert cp.class_rank == 2


def test_presentation_p1n2():
    cp = presentation(p1_power_fan(2))
    assert cp.grading_matrix == ((1, 0, 1, 0), (0, 1, 0, 1))


def test_exactness_all_catalog():
    # grading . rays^t = 0 on every built presentation
    for fan in CATALOG():
        cp = presentation(fan)
        for grow in cp.grading_matrix:
            for prow in cp.ray_matrix:
                assert dot(grow, prow) == 0


def test_presentation_requires_quasi_transitive():
    from toric_linsys.catalog import bl3p2_fan
    with pytest.raises(ValueError, match="not quasi-transitive"):
        build_presentation(transitive_cones(bl3p2_fan()))


def test_to_standard_form_f1():
    cp = presentation(hirzebruch_fan(1))
    assert to_standard_form(cp, (1, 1, 0, 0)) == (2, 1)
    assert to_standard_form(cp, (0, 0, 2, 1)) == (2, 1)


def test_to_standard_form_p2():
    cp = presentation(projective_space_fan(2))
    assert to_standard_form(cp, (1, 1, 1)) == (3,)


def test_to_standard_form_preserves_class():
    rng = random.Random(5)
    for fan in CATALOG():
        cp = presentation(fan)
        r = cp.num_rays
        for _ in range(10):
            coeffs = tuple(rng.randint(-3, 4) for _ in range(r))
            std = to_standard_form(cp, coeffs)
            padded = (0,) * cp.rank + std
            assert divisor_class(cp, coeffs) == divisor_class(cp, padded)
            # standard coefficients are the class coordinates themselves
            assert divisor_class(cp, padded) == std


def test_section_polytope_f1():
    cp = presentation(hirzebruch_fan(1))
    sec = section_polytope(cp, (2, 1))
    assert sec.h0 == 5
    assert set(sec.points) == {(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)}


def test_section_polytope_pn():
    from math import comb
    for n in (2, 3):
        cp = presentation(projective_space_fan(n))
        for d in (1, 2, 3):
            sec = section_polytope(cp, (d,))
            assert sec.h0 == comb(n + d, n)


def test_section_polytope_p1n7_unit_box():
    cp = presentation(p1_power_fan(7))
    sec = section_polytope(cp, (1,) * 7)
    assert sec.h0 == 128


def test_section_polytope_empty():
    cp = presentation(projective_space_fan(2))
    sec = section_polytope(cp, (-1,))
    assert sec.h0 == 0
    assert sec.points == ()


def test_h0_invariant_under_linear_equivalence():
    # replace a divisor by 10 random principal twists: same standard form
    rng = random.Random(17)
    for fan in CATALOG():
        cp = presentation(fan)
        n, r = cp.rank, cp.num_rays
        coeffs = tuple(rng.randint(0, 3) for _ in range(r))
        base = to_standard_form(cp, coeffs)
        h0 = section_polytope(cp, base).h0
        for _ in range(10):
            e = tuple(rng.randint(-3, 3) for _ in range(n))
            twisted = tuple(c + dot(e, ray)
                            for c, ray in zip(coeffs, cp.fan.rays))
            std = to_standard_form(cp, twisted)
            assert std == base
            assert section_polytope(cp, std).h0 == h0


def test_irrelevant_generators():
    cp2 = presentation(projective_space_fan(2))
    assert [sorted(g) for g in irrelevant_generators(cp2.fan)] == [[0, 1, 2]]
    cpf = presentation(hirzebruch_fan(1))
    assert [sorted(g) for g in irrelevant_generators(cpf.fan)] == [[0, 2], [1, 3]]
    cpp = presentation(p1_power_fan(2))
    assert [sorted(g) for g in irrelevant_generators(cpp.fan)] == [[0, 2], [1, 3]]


def test_irrelevant_generators_over_the_budget_are_refused(monkeypatch):
    # P^23 has 24 rays, so 2^24 - 1 nonempty subsets: refused before the
    # loop over them
    with pytest.raises(ValueError, match="^16777215 ray subsets exceed the "
                                         "enumeration budget of 10000000$"):
        irrelevant_generators(projective_space_fan(23))
    # the bound counts the 2^3 - 1 = 7 nonempty subsets of P^2's rays
    monkeypatch.setattr(cox, "POINT_BUDGET", 7)
    assert irrelevant_generators(projective_space_fan(2)) == (
        frozenset({0, 1, 2}),)
    monkeypatch.setattr(cox, "POINT_BUDGET", 6)
    with pytest.raises(ValueError, match="^7 ray subsets exceed the "
                                         "enumeration budget of 6$"):
        irrelevant_generators(projective_space_fan(2))


def test_irrelevant_generators_are_minimal_nonfaces():
    for fan in CATALOG():
        gens = irrelevant_generators(fan)
        cone_sets = [frozenset(c) for c in fan.max_cones]
        for g in gens:
            assert not any(g <= cs for cs in cone_sets)
            for i in g:  # dropping any element gives a face
                sub = g - {i}
                assert not sub or any(sub <= cs for cs in cone_sets)


def test_apply_root_step_f1():
    cp = presentation(hirzebruch_fan(1))
    # root e_1 of ray 0: x_0 -> x_0 + t x_2
    step = CoxAutomorphismStep(DemazureRoot((1, 0), 0), Fraction(3))
    image = apply_root_step(cp, (1, 1, 2, 5), step)
    assert image == (1 + 3 * 2, 1, 2, 5)


def test_apply_root_step_t_zero_and_inverse():
    cp = presentation(hirzebruch_fan(1))
    point = (Fraction(2), Fraction(-1), Fraction(3), Fraction(5))
    for root in (DemazureRoot((1, 0), 0), DemazureRoot((0, 1), 1)):
        ident = apply_root_step(cp, point, CoxAutomorphismStep(root, 0))
        assert ident == point
        fwd = apply_root_step(cp, point, CoxAutomorphismStep(root, Fraction(7, 2)))
        back = apply_root_step(cp, fwd, CoxAutomorphismStep(root, Fraction(-7, 2)))
        assert back == point


def test_apply_root_step_p2():
    cp = presentation(projective_space_fan(2))
    # root (1,0) of ray 0 = -e1: exponent on x_2 is <(1,0), (1,1)> = 1
    step = CoxAutomorphismStep(DemazureRoot((1, 0), 0), Fraction(1, 2))
    image = apply_root_step(cp, (4, 1, 6), step)
    assert image == (4 + Fraction(1, 2) * 6, 1, 6)


def test_apply_root_step_rejects_invalid_root():
    cp = presentation(projective_space_fan(2))
    with pytest.raises(ValueError, match="invalid root"):
        apply_root_step(cp, (1, 1, 1),
                        CoxAutomorphismStep(DemazureRoot((2, 0), 0), 1))


def test_move_torus_point_f1():
    cp = presentation(hirzebruch_fan(1))
    p = (Fraction(3), Fraction(5), Fraction(2), Fraction(7))
    steps, image = move_torus_point_to_invariant(cp, p)
    assert steps[0].t == Fraction(-3, 2)          # -p1 / p3
    assert steps[1].t == Fraction(-5, 14)         # -p2 / (p3 p4)
    assert image == (0, 0, 2, 7)


def test_move_torus_point_p2():
    cp = presentation(projective_space_fan(2))
    steps, image = move_torus_point_to_invariant(cp, (1, 1, 1))
    assert [s.t for s in steps] == [-1, -1]
    assert image == (0, 0, 1)


def test_move_torus_point_rejects_zero():
    cp = presentation(projective_space_fan(2))
    with pytest.raises(ValueError, match="not a torus point"):
        move_torus_point_to_invariant(cp, (0, 1, 1))


def test_move_torus_point_random_property():
    rng = random.Random(23)
    for fan in CATALOG():
        cp = presentation(fan)
        r = cp.num_rays
        n = cp.rank
        for _ in range(20):
            p = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9))
                      * rng.choice((1, -1)) for _ in range(r))
            steps, image = move_torus_point_to_invariant(cp, p)
            assert len(steps) == n
            assert all(x == 0 for x in image[:n])
            assert image[n:] == p[n:]
            assert all(x != 0 for x in image[n:])
