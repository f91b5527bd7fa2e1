import random
from fractions import Fraction
from itertools import product
from math import comb, perm, prod

import pytest
from hypothesis import given, settings, strategies as st

from toric_linsys import (
    GenericityError,
    LatticePolytope,
    LinearSystem,
    RankConfig,
    analyze,
    analyze_polytope_system,
    build_presentation,
    derivative_orders,
    generic_rank,
    lattice_points,
    section_polytope,
    transitive_cones,
)
from toric_linsys.catalog import (
    box_polytope,
    hirzebruch_fan,
    p1_power_fan,
    projective_space_fan,
    simplex_polytope,
    trapezoid_polytope,
)
from toric_linsys import rank as rank_module
from toric_linsys import linsys as linsys_module
from toric_linsys.degeneration import axis_widths, split_polytope
from toric_linsys.linsys import (
    _exponents_and_orders,
    _trial_rank,
    build_point_matrix,
    generic_rank_for_support,
    normalize_mults,
    toric_counts,
)
from toric_linsys.linalg import rank as matrix_rank
from toric_linsys.rank import (_SCREEN_PRIME, TrialEvidence, _prime_search,
                               rank_exact, rank_mod_p)


def presentation(fan):
    return build_presentation(transitive_cones(fan))


CP2 = presentation(projective_space_fan(2))
CPF1 = presentation(hirzebruch_fan(1))


def test_derivative_orders_counts_and_membership():
    for n in (1, 2, 3):
        for mu in (1, 2, 3, 4):
            orders = derivative_orders(n, mu)
            assert len(orders) == comb(n + mu - 1, n)
            assert all(sum(u) <= mu - 1 and min(u) >= 0 for u in orders)
    assert derivative_orders(2, 2) == ((0, 0), (0, 1), (1, 0))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5), st.integers(1, 7))
def test_derivative_orders_is_the_filtered_product(n, mu):
    assert derivative_orders(n, mu) == tuple(
        u for u in product(range(mu), repeat=n) if sum(u) < mu)


def test_derivative_orders_cache_is_bounded_and_never_keeps_the_error():
    assert derivative_orders.cache_info().maxsize is not None
    assert derivative_orders(3, 2) is derivative_orders(3, 2)
    for _ in range(3):
        with pytest.raises(ValueError, match="enumeration budget"):
            derivative_orders(2, 10**30)


def test_build_matrix_line_through_point():
    L = LinearSystem(CP2, (1,), (1,))
    mat = build_point_matrix(L.section().points, L.multiplicities,
                             [(2, 3)])
    assert mat.columns == ((0, 0), (0, 1), (1, 0))
    assert mat.rows == ((1, 3, 2),)
    assert rank_exact(mat.rows) == 1
    rep = analyze(L, RankConfig(seed=0))
    assert rep.dim == 1  # pencil of lines through one point


def test_build_matrix_conics_double_point():
    L = LinearSystem(CP2, (2,), (2,))
    mat = build_point_matrix(L.section().points, L.multiplicities,
                             [(5, 7)])
    assert len(mat.columns) == 6
    assert len(mat.rows) == 3
    assert rank_exact(mat.rows) == 3
    rep = analyze(L, RankConfig(seed=0))
    assert rep.dim == 2


def test_build_matrix_f1_double_point():
    L = LinearSystem(CPF1, (2, 1), (2,))
    mat = build_point_matrix(L.section().points, L.multiplicities,
                             [(3, 4)])
    assert set(mat.columns) == {(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)}
    assert len(mat.rows) == 3
    assert rank_exact(mat.rows) == 3
    rep = analyze(L, RankConfig(seed=0))
    assert rep.dim == 1


def test_build_matrix_entry_formula():
    # d/dx^u of x^m at p is perm(m,u) * p^(m-u), componentwise
    pts = [(2, 3)]
    mat = build_point_matrix([(2, 1)], [3], pts)
    orders = derivative_orders(2, 3)
    expected = []
    for u in orders:
        if u[0] > 2 or u[1] > 1:
            expected.append(0)
        else:
            expected.append(perm(2, u[0]) * perm(1, u[1])
                            * 2 ** (2 - u[0]) * 3 ** (1 - u[1]))
    assert [row[0] for row in mat.rows] == expected


def test_build_matrix_modular_matches_exact():
    p = 2 ** 61 - 1
    pts = [(2, 3), (5, 11)]
    cols = [(0, 0), (1, 0), (2, 1), (0, 2)]
    exact = build_point_matrix(cols, [2, 3], pts)
    modular = build_point_matrix(cols, [2, 3], pts, prime=p)
    for re, rm in zip(exact.rows, modular.rows):
        assert [int(x) % p for x in re] == list(rm)


@st.composite
def supports_and_points(draw):
    n = draw(st.integers(1, 4))
    # exponents up to 3 against orders up to 3, so v > m_j occurs
    columns = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n),
                            min_size=1, max_size=8, unique=True))
    mults = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    coord = st.integers(-50, 50).filter(bool)
    points = [draw(st.tuples(*[coord] * n)) for _ in mults]
    p = draw(st.sampled_from((2, 3, 5, 7, 101, 2 ** 61 - 1)))
    return columns, mults, points, p


@settings(max_examples=200, deadline=None)
@given(supports_and_points())
def test_build_matrix_modular_is_exact_reduced(case):
    columns, mults, points, p = case
    exact = build_point_matrix(columns, mults, points)
    modular = build_point_matrix(columns, mults, points, prime=p)
    assert modular.row_labels == exact.row_labels
    assert modular.rows == tuple(tuple(x % p for x in row)
                                 for row in exact.rows)
    # the exact entries follow the formula, one entry at a time
    for (pi, u), row in zip(exact.row_labels, exact.rows):
        assert list(row) == [
            prod(perm(mj, uj) * x ** max(mj - uj, 0)
                 for mj, uj, x in zip(m, u, points[pi]))
            for m in columns]


@st.composite
def downset_systems(draw):
    """The lattice points of a small orthant down-set polytope as monomial
    support, multiplicities, and integer points with coordinates in
    [1, 50]."""
    n = draw(st.integers(1, 3))
    rows = [(tuple(-int(i == j) for j in range(n)), 0) for i in range(n)]
    for _ in range(draw(st.integers(1, 2))):
        rows.append((tuple(draw(st.integers(1, 3)) for _ in range(n)),
                     draw(st.integers(0, 6))))
    poly = LatticePolytope(tuple(nv for nv, _ in rows),
                           tuple(off for _, off in rows))
    mults = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    points = [draw(st.tuples(*[st.integers(1, 50)] * n)) for _ in mults]
    return lattice_points(poly), mults, points


@settings(max_examples=150, deadline=None)
@given(downset_systems())
def test_rank_mod_p_against_exact_rank_of_point_matrix(case):
    # a trial's modular rank is a lower bound on the exact rank, and equal
    # to it once p exceeds Hadamard's bound on every minor
    columns, mults, points = case
    exact = build_point_matrix(columns, mults, points).rows
    rk = rank_exact(exact)
    hadamard_squared = prod(max(1, sum(x * x for x in row)) for row in exact)
    for p in (2, 3, 5, 7, 101, 2 ** 61 - 1):
        rk_p = rank_mod_p(build_point_matrix(columns, mults, points,
                                             prime=p).rows, p)
        assert rk_p <= rk
        if p * p > hadamard_squared:
            assert rk_p == rk


@st.composite
def modular_trials(draw):
    """A first-orthant support in dimension 1-4, often not a down-set (so
    some rows vanish identically), mixed multiplicities, a prime of 3-20,
    61 or 78 bits, and points in [1, p - 1]. Exponents reach 13 in
    dimension 1 and 9 in dimension 2, past the primes of 3 and 4 bits, so
    perm(m, u) = 0 mod p with u <= m occurs."""
    bits = draw(st.one_of(st.integers(3, 4), st.integers(3, 20),
                          st.sampled_from((61, 78))))
    p = _prime_search(bits, random.Random(draw(st.integers(0, 2 ** 32))))[0]
    n = draw(st.integers(1, 4))
    top = (13, 9, 3, 3)[n - 1]
    exponent = st.integers(0, top)
    if p <= top:  # m_j = p, ..., p + 3 give perm(m_j, u_j) = 0 mod p
        exponent = st.one_of(exponent, st.integers(p, min(p + 3, top)))
    columns = draw(st.lists(st.tuples(*[exponent] * n),
                            min_size=1, max_size=30, unique=True))
    mults = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    coord = st.integers(1, p - 1)
    points = [draw(st.tuples(*[coord] * n)) for _ in mults]
    return columns, n, mults, points, p


@settings(max_examples=300, deadline=None)
@given(modular_trials())
def test_packed_trial_rank_is_the_rank_of_the_point_matrix(case):
    # scaling row (i, u) by the unit x_i^u keeps the rank of every trial
    columns, n, mults, points, p = case
    coords, orders = _exponents_and_orders(columns, n, mults)
    assert _trial_rank(coords, orders, mults, points, p)[0] == rank_mod_p(
        build_point_matrix(columns, mults, points, prime=p).rows, p)


# special systems, each with a rank below min(nonzero rows, columns): the
# Alexander-Hirschowitz double-point cases, O(2, 4) on P^1 x P^1 with five
# double points, and a P^2 quintic through 3,3,2,2,2
SPECIAL_SYSTEMS = (
    (simplex_polytope(2, 2), (2, 2)),
    (simplex_polytope(2, 4), (2, 2, 2, 2, 2)),
    (simplex_polytope(3, 4), (2,) * 9),
    (box_polytope((2, 4)), (2, 2, 2, 2, 2)),
    (simplex_polytope(2, 5), (3, 3, 2, 2, 2)),
)


@st.composite
def exact_trials(draw):
    """A first-orthant support in dimension 1-3, mostly not a down-set, so
    that some orders u have no column m >= u and give zero rows, with mixed
    multiplicities 1-4; or one of the special systems."""
    seed = draw(st.integers(0, 2 ** 32))
    if draw(st.integers(0, 4)) == 0:
        poly, mults = draw(st.sampled_from(SPECIAL_SYSTEMS))
        return lattice_points(poly), poly.dim, mults, seed
    n = draw(st.integers(1, 3))
    exponent = st.integers(0, (9, 5, 3)[n - 1])
    columns = draw(st.lists(st.tuples(*[exponent] * n),
                            min_size=1, max_size=24, unique=True))
    mults = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    return columns, n, mults, seed


@settings(max_examples=200, deadline=None)
@given(exact_trials())
def test_exact_trial_ranks_are_rank_exact_of_the_point_matrix(case):
    # the screen mod 2^61 - 1 and its Bareiss fallback give, trial by
    # trial, rank_exact of the integer matrix at the trial's points; the
    # screen is taken as the rank only at the bound it returns, which is
    # min(nonzero rows, columns) of the integer matrix
    columns, n, mults, seed = case
    best, evidence = generic_rank_for_support(
        columns, n, mults, RankConfig(exact=True, trials=2, seed=seed))
    coords, orders = _exponents_and_orders(columns, n, mults)
    for ev in evidence:
        assert ev.prime is None
        rng = random.Random(ev.seed)
        pts = [tuple(rng.randint(1, 2 ** 16) for _ in range(n))
               for _ in mults]
        rows = build_point_matrix(columns, mults, pts).rows
        assert ev.rank == rank_exact(rows)
        assert _trial_rank(coords, orders, mults, pts, _SCREEN_PRIME)[1] == \
            min(sum(map(any, rows)), len(columns))
    assert best == max(ev.rank for ev in evidence)


def test_exact_trials_of_a_special_system_reach_bareiss(monkeypatch):
    # Alexander-Hirschowitz: quartics through five double points of P^2 are
    # special, so every screen falls short of 15 and Bareiss gives 14
    calls = []

    def counted(rows):
        calls.append(rows)
        return matrix_rank(rows)

    monkeypatch.setattr(linsys_module, "matrix_rank", counted)
    L = LinearSystem(CP2, (4,), (2, 2, 2, 2, 2))
    rk, evidence = generic_rank(L, RankConfig(exact=True))
    assert rk == 14 and [ev.rank for ev in evidence] == [14] * 5
    assert len(calls) == 5


def test_exact_trials_fall_back_when_the_screen_falls_short(monkeypatch):
    # a screen one short of full goes on to Bareiss, which finds the full
    # rank of this non-special system; a full screen never builds the matrix
    built = []

    def counted(columns, mults, points, prime=None):
        built.append(points)
        return build_point_matrix(columns, mults, points, prime)

    monkeypatch.setattr(linsys_module, "build_point_matrix", counted)
    L = LinearSystem(CP2, (4,), (3, 2, 2))
    cfg = RankConfig(exact=True, trials=3, seed=4)
    rk, evidence = generic_rank(L, cfg)
    assert rk == 12 and not built
    def one_short(*args):
        rk, full = _trial_rank(*args)
        return rk - 1, full

    monkeypatch.setattr(linsys_module, "_trial_rank", one_short)
    assert generic_rank(L, cfg) == (rk, evidence)
    assert len(built) == 3


def test_build_matrix_integer_points_give_integer_entries():
    # integer points keep exact trials on integers; halving every coordinate
    # scales row u by 2^|u| and column m by 2^-|m|, so the rank is unchanged
    cols = [(i, j) for i in range(4) for j in range(3)]
    pts = [(2, 3), (5, 7), (3, 11)]
    ints = build_point_matrix(cols, [2, 2, 3], pts)
    assert all(type(x) is int for row in ints.rows for x in row)
    halves = build_point_matrix(
        cols, [2, 2, 3], [tuple(Fraction(x, 2) for x in pt) for pt in pts])
    assert all(type(x) is Fraction for row in halves.rows for x in row if x)
    assert rank_exact(halves.rows) == rank_exact(ints.rows)


def test_non_integral_multiplicities_are_rejected():
    with pytest.raises(ValueError, match="integer"):
        normalize_mults([2.5, 1])
    with pytest.raises(ValueError, match="integer"):
        LinearSystem(CP2, (3,), (2.5,))
    assert normalize_mults([2.0, 0, 1]) == (2, 1)


def test_rows_outside_support_polytope_vanish():
    # the support is a down-set of the first orthant, so a derivative order
    # outside it kills every monomial: those rows are identically zero
    from toric_linsys.lattice import lattice_points
    box = box_polytope((1, 1))
    pts = tuple(lattice_points(box))
    mat = build_point_matrix(pts, (3,), [(2, 3)])
    for (_, u), row in zip(mat.row_labels, mat.rows):
        if not box.contains(u):
            assert all(x == 0 for x in row)
        else:
            assert any(x != 0 for x in row)


def test_generic_rank_no_points():
    L = LinearSystem(CP2, (3,), ())
    rk, evidence = generic_rank(L)
    assert rk == 0 and evidence == ()
    rep = analyze(L, RankConfig(seed=0))
    assert rep.dim == rep.h0 - 1 == 9


def test_generic_rank_double_conic():
    L = LinearSystem(CP2, (2,), (2, 2))
    rk, evidence = generic_rank(L, RankConfig(seed=12))
    assert rk == 5
    assert len(evidence) == 5
    assert all(e.rank == 5 for e in evidence)
    rep = analyze(L, RankConfig(seed=12))
    assert rep.dim == 0 and rep.special  # the double line through 2 points


def uncached_generic_rank(columns, n, mults, cfg):
    """The trial loop with a fresh prime search in every trial."""
    master = random.Random(cfg.seed)
    out = []
    for _ in range(cfg.trials):
        tseed = master.getrandbits(63)
        trng = random.Random(tseed)
        p = _prime_search(cfg.prime_bits, trng)[0]
        pts = [tuple(trng.randint(1, p - 1) for _ in range(n)) for _ in mults]
        rows = build_point_matrix(columns, mults, pts, prime=p).rows
        out.append(TrialEvidence(p, tseed, rank_mod_p(rows, p)))
    return max(e.rank for e in out), tuple(out)


@pytest.mark.parametrize("bits", [4, 5, 61, 78])
def test_generic_rank_same_on_cold_and_warm_prime_cache(bits):
    columns = tuple(lattice_points(box_polytope((3, 2))))
    mults = (2, 2, 1)
    for seed in (0, 1, 2):
        cfg = RankConfig(seed=seed, prime_bits=bits)
        rank_module._trial_prime_draws.cache_clear()
        cold = generic_rank_for_support(columns, 2, mults, cfg)
        warm = generic_rank_for_support(columns, 2, mults, cfg)
        assert cold == warm == uncached_generic_rank(columns, 2, mults, cfg)


def test_zero_multiplicities_dropped():
    L = LinearSystem(CP2, (2,), (2, 0, 2, 0))
    assert L.multiplicities == (2, 2)


def test_toric_truncation():
    def truncations(L):
        return toric_counts(L.section().polytope, L.multiplicities)[1]

    L = LinearSystem(CP2, (2,), (2,))
    assert truncations(L) == (3,)
    L = LinearSystem(presentation(p1_power_fan(7)), (1,) * 7, (3, 3, 3))
    assert truncations(L) == (29, 29, 29)  # 1 + 7 + 21
    for n in (2, 3, 4):
        L = LinearSystem(CPF1, (n, 1), (2,))
        assert truncations(L) == (3,)


def walked_condition_counts(polytope, n, mults):
    """Per multiplicity, the derivative orders that `contains` accepts."""
    return tuple(
        sum(1 for u in derivative_orders(n, mu) if polytope.contains(u))
        for mu in mults)


@st.composite
def bounded_polytopes(draw):
    """Boxes, simplices and trapezoids; optionally one piece of a split,
    with a plus piece translated back by its anchor (its -e_axis row keeps a
    positive offset); then optionally translated by t in [-3, 3]^n, which
    gives boxes with lo > 0 and points with negative coordinates."""
    poly = draw(st.one_of(
        st.builds(box_polytope, st.lists(st.integers(1, 3), min_size=1,
                                         max_size=3)),
        st.builds(simplex_polytope, st.integers(1, 3), st.integers(1, 4)),
        st.integers(2, 5).flatmap(lambda a: st.builds(
            trapezoid_polytope, st.just(a), st.integers(1, a - 1)))))
    if draw(st.booleans()):
        axis = draw(st.integers(0, poly.dim - 1))
        level = draw(st.integers(1, axis_widths(poly)[axis]))
        pieces = split_polytope(poly, axis, level)
        name = draw(st.sampled_from(("minus_prev", "minus", "plus_prev",
                                     "plus")))
        poly = getattr(pieces, name)
        if name == "plus" and draw(st.booleans()):
            poly = poly.translate(tuple(-x for x in pieces.plus_anchor))
    if draw(st.booleans()):
        poly = poly.translate(draw(st.lists(st.integers(-3, 3),
                                            min_size=poly.dim,
                                            max_size=poly.dim)))
    return poly


@settings(max_examples=300, deadline=None)
@given(bounded_polytopes(), st.lists(st.integers(0, 6), max_size=4))
def test_truncation_counts_match_the_derivative_order_walk(poly, mults):
    assert toric_counts(poly, mults)[1] == \
        walked_condition_counts(poly, poly.dim, mults)


def test_truncation_counts_off_the_first_orthant():
    # [1, 2]^2 holds no order u >= 0 with |u| < 2; [-1, 1]^2 holds the
    # orders of |u| < 2 and, of the order-2 ones, only (1, 1)
    lifted = box_polytope((1, 1)).translate((1, 1))
    assert toric_counts(lifted, (1, 2, 3))[1] == (0, 0, 1)
    centred = box_polytope((2, 2)).translate((-1, -1))
    assert toric_counts(centred, (1, 2, 3, 4))[1] == (1, 3, 4, 4)


def test_analyze_quartics_five_double_points():
    L = LinearSystem(CP2, (4,), (2,) * 5)
    rep = analyze(L, RankConfig(seed=4))
    assert rep.h0 == 15
    assert rep.vdim == -1 and rep.edim == -1
    assert rep.rank == 14
    assert rep.dim == 0
    assert rep.special and rep.toric_special
    assert rep.tedim == -1


def test_analyze_report_identities():
    rng = random.Random(77)
    for fan in (projective_space_fan(2), hirzebruch_fan(1), p1_power_fan(2)):
        cp = presentation(fan)
        for _ in range(10):
            d = tuple(rng.randint(0, 3) for _ in range(cp.class_rank))
            mults = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3)))
            rep = analyze(LinearSystem(cp, d, mults), RankConfig(seed=rng.randint(0, 99)))
            assert rep.dim + rep.rank + 1 == rep.h0
            assert rep.dim >= rep.tedim >= rep.edim
            assert rep.edim == max(rep.vdim, -1)
            assert rep.tedim == max(rep.tvdim, -1)
            assert rep.special == (rep.dim > rep.edim)
            assert rep.toric_special == (rep.dim > rep.tedim)


def test_tedim_equals_edim_when_truncation_trivial():
    rng = random.Random(3)
    for _ in range(20):
        d = rng.randint(1, 5)
        mults = tuple(rng.randint(1, d + 1) for _ in range(rng.randint(1, 3)))
        L = LinearSystem(CP2, (d,), mults)
        rep = analyze(L, RankConfig(seed=8))
        assert rep.tvdim == rep.vdim  # simplex contains all orders <= mu-1 <= d
        assert rep.tedim == rep.edim


def test_rank_monotone_in_multiplicity_and_points():
    base = LinearSystem(CP2, (3,), (2,))
    r0, _ = generic_rank(base, RankConfig(seed=5))
    r1, _ = generic_rank(LinearSystem(CP2, (3,), (3,)), RankConfig(seed=5))
    r2, _ = generic_rank(LinearSystem(CP2, (3,), (2, 1)), RankConfig(seed=5))
    assert r0 <= r1
    assert r0 <= r2


def test_report_invariant_under_point_permutation():
    mults = (3, 1, 2)
    rep1 = analyze(LinearSystem(CP2, (4,), mults), RankConfig(seed=6))
    for perm in ((1, 2, 3), (2, 1, 3), (3, 2, 1), (1, 3, 2)):
        rep2 = analyze(LinearSystem(CP2, (4,), perm), RankConfig(seed=6))
        assert (rep2.h0, rep2.rank, rep2.dim, rep2.vdim, rep2.tvdim) == \
               (rep1.h0, rep1.rank, rep1.dim, rep1.vdim, rep1.tvdim)


def test_modular_equals_exact_small_systems():
    rng = random.Random(13)
    for _ in range(15):
        d = rng.randint(1, 4)
        k = rng.randint(1, 3)
        mults = tuple(rng.randint(1, 3) for _ in range(k))
        L = LinearSystem(CP2, (d,), mults)
        rk_mod, _ = generic_rank(L, RankConfig(seed=21, trials=3))
        rk_exact, _ = generic_rank(L, RankConfig(seed=21, trials=2, exact=True))
        assert rk_mod == rk_exact


def test_empty_section_polytope_short_circuits():
    L = LinearSystem(CP2, (-2,), (1, 1))
    rep = analyze(L, RankConfig(seed=0))
    assert rep.h0 == 0 and rep.rank == 0 and rep.dim == -1
    assert rep.tedim == -1 and rep.edim == -1
    assert not rep.special and not rep.toric_special


def test_analyze_polytope_system_matches_divisor_route():
    # the class (3,1) as a divisor system vs its trapezoid as a raw polytope
    L = LinearSystem(CPF1, (3, 1), (2, 1))
    rep1 = analyze(L, RankConfig(seed=9))
    rep2 = analyze_polytope_system(trapezoid_polytope(3, 1), (2, 1),
                                   RankConfig(seed=9))
    assert rep1 == rep2


def test_deterministic_reports():
    L = LinearSystem(CP2, (3,), (2, 2))
    rep1 = analyze(L, RankConfig(seed=123))
    rep2 = analyze(L, RankConfig(seed=123))
    assert rep1 == rep2
    rep3 = analyze(L, RankConfig(seed=124))
    assert [e.prime for e in rep1.samples] != [e.prime for e in rep3.samples]


def test_genericity_error_on_non_downset_support(monkeypatch):
    # a support that is not a down-set breaks the truncation bound, so it is
    # refused before any trial instead of returning an inconsistent report
    shifted = box_polytope((1, 1)).translate((2, 0))
    with pytest.raises(ValueError, match=r"holds \(2, 0\) but not \(1, 0\)"):
        analyze_polytope_system(shifted, (2,), RankConfig(seed=1))
    # a trial rank above the generic one (h0 here) breaks the chain
    # dim >= tedim and fails loudly
    monkeypatch.setattr(linsys_module, "_trial_rank",
                        lambda coords, *rest: (len(coords[0]),) * 2)
    with pytest.raises(GenericityError):
        analyze_polytope_system(box_polytope((1, 1)), (2,), RankConfig(seed=1))


def test_an_exponent_above_h0_is_refused_before_any_trial(monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(linsys_module, "generic_rank_for_support", no_trial)
    # three points on the axis far from the origin: not a down-set
    segment = LatticePolytope(((-1,), (1,)), (-10**5, 10**5 + 2))
    with pytest.raises(ValueError) as exc:
        analyze_polytope_system(segment, (1,))
    assert str(exc.value) == ("the support is not an orthant down-set: it "
                              "holds (100000,) but not (99999,)")
    # every orthant down-set passes
    with pytest.raises(AssertionError, match="a trial ran"):
        analyze_polytope_system(box_polytope((4,)), (1,))


# {-x + 2y <= 1, -x + 2y <= 4, y >= 0, x <= 3} holds the point (-1, 0); the
# exponent -1 was read as a negative list index, giving rank 8 where its
# translate by (1, 0) has rank 9
OFF_ORTHANT = LatticePolytope(((-1, 2), (-1, 2), (0, -1), (1, 0)), (1, 4, 0, 3))


def test_negative_exponent_is_an_error_not_an_index():
    assert (-1, 0) in OFF_ORTHANT.points
    for prime in (None, 101):
        with pytest.raises(ValueError, match="negative exponent"):
            build_point_matrix(OFF_ORTHANT.points, (2,), [(3, 5)], prime)
    with pytest.raises(ValueError, match="negative exponent"):
        analyze_polytope_system(OFF_ORTHANT, (3, 3, 2), RankConfig(seed=0))
    # the translate into the first orthant builds as before
    moved = OFF_ORTHANT.translate((1, 0))
    assert build_point_matrix(moved.points, (2,), [(3, 5)]).rows


@pytest.mark.parametrize("divisor", [(2.5, 1), (Fraction(5, 2), 1)])
def test_non_integral_divisor_is_an_error_not_truncated(divisor):
    # int() used to read (2.5, 1) as the class (2, 1)
    with pytest.raises(ValueError, match="integer vector expected"):
        section_polytope(CPF1, divisor)
    system = LinearSystem(CPF1, divisor, (1,))
    for call in (system.section, lambda: analyze(system)):
        with pytest.raises(ValueError, match="integer vector expected"):
            call()


SYSTEM_FANS = {"pn:2": CP2, "hirzebruch:1": CPF1,
               "p1n:2": presentation(p1_power_fan(2))}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SYSTEM_FANS)), st.lists(st.integers(-1, 4),
       min_size=2, max_size=2), st.lists(st.integers(0, 3), max_size=4),
       st.integers(0, 2**32))
def test_analyze_is_the_report_of_the_section_polytope(name, cls, mults,
                                                       seed):
    cp = SYSTEM_FANS[name]
    cls = tuple(cls[:cp.class_rank])
    poly = section_polytope(cp, cls).polytope
    cfg = RankConfig(trials=2, seed=seed)
    report = analyze(LinearSystem(cp, cls, mults), cfg)
    assert report == analyze_polytope_system(poly, mults, cfg)
    # tvdim against the orders inside the polytope, counted one by one
    n = cp.rank
    inside = sum(poly.contains(u) for mu in mults if mu
                 for u in derivative_orders(n, mu))
    assert report.tvdim == report.h0 - inside - 1
