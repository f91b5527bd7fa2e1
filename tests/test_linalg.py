import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from toric_linsys.linalg import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    adjugate,
    det,
    dot,
    lp_solve,
    mat_mul,
    mat_vec,
    rank,
    solve_in_span,
    solve_unique,
)
from toric_linsys.rank import rank_exact, rank_mod_p

from references import affine_rank


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def minor_rank(rows):
    """Independent rank oracle: largest k with a nonzero k x k minor. Rows
    are first scaled to integers, which turns no minor zero or nonzero."""
    rows = [[int(x * lcm(*(Fraction(y).denominator for y in row)))
             for x in row] for row in rows]
    m, n = len(rows), len(rows[0])
    for k in range(min(m, n), 0, -1):
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(n), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if det(sub) != 0:
                    return k
    return 0


def test_det_small():
    assert det([[2]]) == 2
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[0, 1], [1, 0]]) == -1
    assert det(identity(5)) == 1
    assert det([[1, 2], [2, 4]]) == 0


def test_det_matches_permutation_expansion():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 4)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        expected = 0
        for perm in itertools.permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = sign
            for i in range(n):
                term *= m[i][perm[i]]
            expected += term
        assert det(m) == expected


@pytest.mark.parametrize("m", [[[Fraction(1, 2)]], [[1, 0], [0, Fraction(1)]],
                               [[1, 2], [3, 4.0]]])
def test_det_and_adjugate_take_integer_entries_only(m):
    # a Fraction row would have its denominator cleared, as rank does
    with pytest.raises(TypeError, match="det needs integer entries"):
        det(m)
    with pytest.raises(TypeError, match="adjugate needs integer entries"):
        adjugate(m)
    assert det([[True, 0], [0, 2]]) == 2  # bool is an int


def test_solve_unique():
    x = solve_unique([[2, 1], [1, 1]], (3, 2))
    assert x == (Fraction(1), Fraction(1))
    assert solve_unique([[1, 2], [2, 4]], (1, 1)) is None


def test_solve_in_span():
    vs = ((1, 0, 1), (0, 1, 1))
    assert solve_in_span(vs, (2, 3, 5)) == (2, 3)
    assert solve_in_span(vs, (1, 0, 0)) is None
    with pytest.raises(ValueError):
        solve_in_span(((1, 0), (2, 0)), (1, 1))


def test_rank_matches_minor_oracle():
    rng = random.Random(11)
    for _ in range(80):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        assert rank(rows) == minor_rank(rows)


def test_affine_rank():
    assert affine_rank(()) == -1
    assert affine_rank(((1, 2),)) == 0
    assert affine_rank(((0, 0), (1, 0), (2, 0))) == 1
    assert affine_rank(((0, 0), (1, 0), (0, 1))) == 2


def test_lp_unit_square():
    ineqs = [((1, 0), 1), ((0, 1), 1), ((-1, 0), 0), ((0, -1), 0)]
    res = lp_solve(2, (1, 1), ineqs)
    assert res.status == OPTIMAL
    assert res.value == 2
    res = lp_solve(2, (1, 1), ineqs, maximize=False)
    assert res.value == 0


def test_lp_infeasible_and_unbounded():
    res = lp_solve(1, (1,), [((1,), 0), ((-1,), -1)])
    assert res.status == INFEASIBLE
    res = lp_solve(1, (1,), [((-1,), 0)])
    assert res.status == UNBOUNDED


def test_lp_equalities_and_fractions():
    # maximize x subject to 2x + 3y == 6, x,y >= 0
    res = lp_solve(2, (1, 0), [((-1, 0), 0), ((0, -1), 0)], eqs=[((2, 3), 6)])
    assert res.status == OPTIMAL
    assert res.value == 3
    res = lp_solve(2, (0, 1), [((-1, 0), 0), ((0, -1), 0)], eqs=[((2, 3), 6)])
    assert res.value == 2


def test_lp_nonneg_mode():
    res = lp_solve(2, (1, 1), [((1, 2), 4)], nonneg=True)
    assert res.status == OPTIMAL
    assert res.value == 4
    assert lp_solve(2, None, [((1, 0), -1)], nonneg=True).status == INFEASIBLE
    assert lp_solve(2, None, [((1, 0), 1)], nonneg=True).status == OPTIMAL


def test_lp_degenerate_redundant_rows():
    ineqs = [((1, 0), 1), ((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]
    eqs = [((1, 1), 1), ((2, 2), 2)]  # duplicated equality
    res = lp_solve(2, (1, 0), ineqs, eqs)
    assert res.status == OPTIMAL
    assert res.value == 1


def test_lp_randomized_against_vertex_enumeration():
    # bounded 2d feasible regions: LP optimum equals the best vertex value
    rng = random.Random(7)
    box = [((1, 0), 5), ((0, 1), 5), ((-1, 0), 5), ((0, -1), 5)]
    for _ in range(40):
        cuts = [((rng.randint(-3, 3), rng.randint(-3, 3)), rng.randint(0, 6))
                for _ in range(3)]
        ineqs = box + [c for c in cuts if any(c[0])]
        c = (rng.randint(-3, 3), rng.randint(-3, 3))
        res = lp_solve(2, c, ineqs)
        # vertex oracle
        best = None
        rows = ineqs
        for i, j in itertools.combinations(range(len(rows)), 2):
            x = solve_unique([rows[i][0], rows[j][0]], [rows[i][1], rows[j][1]])
            if x is None:
                continue
            if all(dot(a, x) <= b for a, b in rows):
                v = dot(c, x)
                best = v if best is None else max(best, v)
        if best is None:
            assert res.status == INFEASIBLE
        else:
            assert res.status == OPTIMAL
            assert res.value == best


# ---------------------------------------------------------------------------
# Property tests of the fraction-free elimination core against independent
# oracles: minors for rank, the Leibniz sum for det, substitution for solves.


def leibniz_det(m):
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        term = (-1) ** sum(perm[i] > perm[j]
                           for i in range(n) for j in range(i + 1, n))
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


@st.composite
def matrices(draw, rows=None, cols=None, rational=True):
    """Integer or rational matrices up to 6 x 6; half of them are a product
    through a random inner size, so rank deficiency is common."""
    m = rows or draw(st.integers(1, 6))
    n = cols or draw(st.integers(1, 6))
    entry = st.integers(-4, 4)
    if draw(st.booleans()):
        r = draw(st.integers(0, min(m, n)))
        left = [[draw(entry) for _ in range(r)] for _ in range(m)]
        right = [[draw(entry) for _ in range(n)] for _ in range(r)]
        a = [[sum(left[i][k] * right[k][j] for k in range(r))
              for j in range(n)] for i in range(m)]
    else:
        a = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if rational and draw(st.booleans()):
        a = [[Fraction(x, draw(st.integers(1, 5))) for x in row] for row in a]
    return a


@st.composite
def square_systems(draw):
    n = draw(st.integers(1, 6))
    m = draw(matrices(rows=n, cols=n))
    b = draw(matrices(rows=1, cols=n))[0]
    return m, b


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_property_matches_minor_oracle(rows):
    expected = minor_rank(rows)
    assert rank(rows) == expected
    assert rank_exact(rows) == expected


INT_SQUARES = st.integers(1, 6).flatmap(
    lambda n: matrices(rows=n, cols=n, rational=False))


@settings(max_examples=150, deadline=None)
@given(INT_SQUARES)
def test_det_property_matches_leibniz(m):
    assert det(m) == leibniz_det(m)


@settings(max_examples=150, deadline=None)
@given(square_systems(), INT_SQUARES)
def test_solve_unique_and_adjugate_property(system, a):
    # solve_unique takes rational systems, adjugate integer matrices
    m, b = system
    x = solve_unique(m, b)
    if leibniz_det(m) == 0:
        assert x is None
    else:
        assert mat_vec(m, x) == tuple(b)
    d = leibniz_det(a)
    d_adj, adj = adjugate(a)
    if d == 0:
        assert (d_adj, adj) == (0, None)
        return
    assert d_adj == d
    assert mat_mul(a, adj) == tuple(tuple(d * x for x in row)
                                    for row in identity(len(a)))


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_solve_in_span_property(vectors, data):
    k, n = len(vectors), len(vectors[0])
    target = data.draw(matrices(rows=1, cols=n))[0]
    if data.draw(st.booleans()):
        coeffs = data.draw(matrices(rows=1, cols=k))[0]
        target = [sum(c * v[i] for c, v in zip(coeffs, vectors))
                  for i in range(n)]
    if minor_rank(vectors) < k:
        with pytest.raises(ValueError):
            solve_in_span(vectors, target)
        return
    coeffs = solve_in_span(vectors, target)
    if minor_rank(vectors + [target]) > k:
        assert coeffs is None
    else:
        assert [sum(c * v[i] for c, v in zip(coeffs, vectors))
                for i in range(n)] == list(target)


@settings(max_examples=150, deadline=None)
@given(matrices(rational=False), st.sampled_from([2, 3, 5, 7, 2 ** 61 - 1]))
def test_rank_mod_p_never_exceeds_exact_rank(rows, p):
    assert rank_mod_p(rows, p) <= rank_exact(rows)


def dot_before(a, b):
    return sum(x * y for x, y in zip(a, b))


def mat_mul_before(a, b):
    cols = tuple(tuple(row[j] for row in b) for j in range(len(b[0])))
    return tuple(tuple(dot_before(row, col) for col in cols) for row in a)


NUMBERS = st.one_of(st.integers(-10**20, 10**20), st.fractions())


@settings(max_examples=200, deadline=None)
@given(st.lists(NUMBERS, max_size=7), st.lists(NUMBERS, max_size=7))
def test_dot_equals_the_generator_form(a, b):
    # unequal lengths sum over the shorter operand, as zip does; the vertex
    # walk of LatticePolytope.incidence dots each (normal, offset) row with
    # the n numerators of a vertex
    got, want = dot(tuple(a), b), dot_before(a, b)
    assert got == want and type(got) is type(want)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_mat_mul_equals_the_generator_form(a, data):
    b = data.draw(matrices(rows=len(a[0])))
    got, want = mat_mul(a, b), mat_mul_before(a, b)
    assert got == want
    assert [type(x) for row in got for x in row] == \
        [type(x) for row in want for x in row]
