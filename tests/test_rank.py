import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toric_linsys import rank as rank_module
from toric_linsys.rank import (
    RankConfig,
    is_prime,
    random_prime,
    rank_exact,
    rank_mod_p,
    trial_prime,
)
from toric_linsys.linalg import det, rank as bareiss_rank


def minor_rank(rows):
    m, n = len(rows), len(rows[0])
    for k in range(min(m, n), 0, -1):
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(n), k):
                if det([[rows[i][j] for j in ci] for i in ri]) != 0:
                    return k
    return 0


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                      47, 53, 59]
    assert not is_prime(1)
    assert not is_prime(561)        # Carmichael
    assert not is_prime(2 ** 61)
    assert is_prime(2 ** 61 - 1)    # Mersenne


def test_is_prime_refuses_the_twelve_base_pseudoprime():
    # the smallest strong pseudoprime to the bases 2..37 (Sorenson-Webster)
    psi12 = 399165290221 * 798330580441
    assert psi12 == 318665857834031151167461
    for n in (psi12, psi12 + 1, 2 ** 79):
        with pytest.raises(ValueError, match="only decided below"):
            is_prime(n)
    assert is_prime(psi12 - 1) is False  # even


def twelve_base_is_prime(n):
    """Miller-Rabin with the twelve prime bases 2..37 after trial division
    by them: deterministic below 318665857834031151167461."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for a in bases:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_is_prime_matches_twelve_base_test():
    assert all(is_prime(n) == twelve_base_is_prime(n)
               for n in range(200_000))
    rng = random.Random(64)
    # strong pseudoprimes to the first few prime bases, Carmichael numbers,
    # the prime factors of two of the 64-bit bases, and products of two
    # primes above the trial-division screen
    hard = [2047, 3215031751, 2152302898747, 3474749660383,
            341550071728321, 3825123056546413051, 561, 41041, 825265,
            407521, 299210837, 307 * 311, 4294967291 * 4294967279,
            2 ** 64 - 59, 2 ** 64 + 13, 2 ** 61 - 1]
    ns = hard + [rng.randrange(2 ** 64) for _ in range(3000)] \
        + [random_prime(bits, rng) * random_prime(bits, rng)
           for bits in (10, 20, 32) for _ in range(100)] \
        + [random_prime(bits, rng) for bits in (33, 61, 64, 65, 78)
           for _ in range(100)]
    assert [is_prime(n) for n in ns] == [twelve_base_is_prime(n) for n in ns]
    assert is_prime(407521) and is_prime(299210837)


def test_rank_config_prime_bits_range():
    assert RankConfig(prime_bits=78).prime_bits == 78
    assert 2 ** 78 < 318665857834031151167461
    with pytest.raises(ValueError, match="prime_bits must be at most 78"):
        RankConfig(prime_bits=79)
    p = random_prime(78, random.Random(0))
    assert 2 ** 77 <= p < 2 ** 78 and is_prime(p)


def test_random_prime_range_and_determinism():
    rng = random.Random(9)
    ps = [random_prime(61, rng) for _ in range(5)]
    assert all(2 ** 60 <= p < 2 ** 61 and is_prime(p) for p in ps)
    rng2 = random.Random(9)
    assert ps == [random_prime(61, rng2) for _ in range(5)]


@settings(max_examples=300, deadline=None)
@given(tseed=st.integers(0, 2 ** 63 - 1),
       bits=st.sampled_from((3, 4, 5, 17, 33, 61, 64, 65, 78)))
def test_trial_prime_replays_the_search(tseed, bits):
    # 4 and 5 bits draw composite candidates (9, 15, 21, 25, 27) often, so
    # the replay of more than one draw is exercised; at 33 and 65 bits a
    # draw of `bits` instead of `bits - 1` random bits takes one more word
    ref = random.Random(tseed)
    prime = random_prime(bits, ref)
    for _ in range(2):  # cold or warm, then warm
        got, rng = trial_prime(tseed, bits)
        assert got == prime
        assert rng.getstate() == ref.getstate()


def test_trial_prime_replays_several_draws():
    draws = [rank_module._trial_prime_draws(s, 4)[1] for s in range(40)]
    assert max(draws) > 1


def test_rank_mod_p_vs_exact_vs_minors():
    rng = random.Random(31)
    p = random_prime(61, rng)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        expected = minor_rank(rows)
        assert rank_exact(rows) == expected
        # entries are tiny, so reduction mod a 61-bit prime loses nothing
        assert rank_mod_p(rows, p) == expected


def test_rank_mod_p_degenerate_inputs():
    p = 2 ** 61 - 1
    assert rank_mod_p([], p) == 0
    assert rank_mod_p([[0, 0], [0, 0]], p) == 0
    assert rank_mod_p([[p, 2 * p], [1, 1]], p) == 1  # reductions hit zero


def test_rank_exact_rectangular():
    rows = [[1, 2, 3, 4],
            [2, 4, 6, 8],
            [0, 1, 0, 1]]
    assert rank_exact(rows) == 2


def textbook_rank_mod_p(rows, p):
    """Gaussian elimination with every entry reduced mod p after each
    row update."""
    a = [[x % p for x in row] for row in rows]
    if not a or not a[0]:
        return 0
    ncols = len(a[0])
    rk = 0
    for col in range(ncols):
        piv = None
        for i in range(rk, len(a)):
            if a[i][col]:
                piv = i
                break
        if piv is None:
            continue
        a[rk], a[piv] = a[piv], a[rk]
        inv = pow(a[rk][col], -1, p)
        prow = a[rk]
        for i in range(rk + 1, len(a)):
            f = a[i][col]
            if f:
                f = f * inv % p
                a[i] = [(x - f * y) % p for x, y in zip(a[i], prow)]
        rk += 1
        if rk == len(a):
            break
    return rk


P78 = 302231454903657293676533  # the largest prime below 2^78
PRIMES = (2, 3, 5, 7, 101, 2 ** 61 - 1, P78)


def draw_rows(draw, m, n, entry):
    """Random m x n rows, or a product of lower rank, with up to three zero
    rows inserted."""
    if draw(st.booleans()):
        rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                             min_size=m, max_size=m))
    else:
        # a product through k < min(m, n) inner columns is rank-deficient
        k = draw(st.integers(0, min(m, n) - 1))
        left = draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                             min_size=m, max_size=m))
        right = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                              min_size=k, max_size=k))
        rows = [[sum(x * right[t][j] for t, x in enumerate(row))
                 for j in range(n)] for row in left]
    zero_rows = draw(st.lists(st.integers(0, m), max_size=3))
    for i in zero_rows:
        rows.insert(i, [0] * n)
    return rows


@st.composite
def prime_and_matrix(draw):
    # small primes make columns without a pivot common
    p = draw(st.sampled_from(PRIMES))
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 10))
    entry = st.one_of(st.integers(-3 * p, 3 * p), st.integers(-9, 9))
    return p, draw_rows(draw, m, n, entry)


@settings(max_examples=400, deadline=None)
@given(prime_and_matrix())
def test_rank_mod_p_matches_textbook_elimination(case):
    p, rows = case
    before = [list(row) for row in rows]
    assert rank_mod_p(rows, p) == textbook_rank_mod_p(rows, p)
    assert rows == before


def staircase_product(m, n, p):
    """L * U with rank min(m, n) - 1: U is unit upper triangular with p - 1
    above the diagonal and L has ones on and below it. Without row swaps
    every update has f = 1 against tail slots congruent to p - 1, and the
    last row takes min(m, n) - 1 updates before it reaches zero mod p."""
    r = min(m, n) - 1
    upper = [[(1 if j == i else p - 1) if j >= i else 0 for j in range(n)]
             for i in range(r)]
    return [[sum(upper[t][j] for t in range(min(i, r - 1) + 1)) % p
             for j in range(n)] for i in range(m)]


@pytest.mark.parametrize("p", (2 ** 61 - 1, P78))
@pytest.mark.parametrize("shape", ((64, 64), (200, 231), (231, 200)))
def test_rank_mod_p_slots_do_not_overflow(p, shape):
    # the staircase's rows are the inserted vectors only when rows >= cols;
    # then each takes up to min(m, n) - 1 updates with f = 1 against tail
    # slots of p - 1 or 2p - 1; the largest growth, (p - 1)(2p - 1) per
    # update, is bounded for every width by test_slot_width_bounds_the_growth
    m, n = shape
    rng = random.Random(m * n + p % 1000)
    rows = [tuple(rng.choice((0, p - 2, p - 1)) for _ in range(n))
            for _ in range(m)]
    assert rank_mod_p(rows, p) == textbook_rank_mod_p(rows, p) == min(m, n)
    stair = staircase_product(m, n, p)
    before = [list(row) for row in stair]
    assert rank_mod_p(stair, p) == min(m, n) - 1
    assert stair == before


def slot_width(p, k):
    """The kernel's slot width for prime p and rank at most k."""
    return 8 * rank_module._slot_bytes(p, k)


@pytest.mark.parametrize("p", (2 ** 61 - 1, P78))
def test_eliminate_slots_do_not_overflow_with_more_slots_than_vectors(p):
    # a 231 x 200 staircase read by columns, as a modular trial reads its
    # matrix: 200 vectors of 231 slots, the last taking 199 updates with
    # f = 1, each slot starting at its entry plus (p - 1) p, so below p^2
    nbytes = slot_width(p, 200) // 8
    vectors = [int.from_bytes(b"".join((x + (p - 1) * p).to_bytes(nbytes, "little")
                                       for x in col), "little")
               for col in staircase_product(200, 231, p)]
    assert rank_module._eliminate(vectors, 231, 200, p, nbytes) == 199


def even_slots(w, n):
    """The low w bits of each 2w-bit field, over at least n w-bit slots."""
    return sum(((1 << w) - 1) << (2 * w * i) for i in range(n // 2 + 1))


def unpack(v, w, n):
    return [v >> (w * i) & ((1 << w) - 1) for i in range(n)]


def test_slot_width_bounds_the_growth():
    # a slot starts below p (rank_mod_p) or below p^2 (a modular trial's
    # product of two residues) and takes fewer than k updates, each adding
    # at most (p - f) * tail <= (p - 1)(2p - 1) with tails in [0, 2p)
    for p in PRIMES:
        for k in range(1, 10 ** 5 + 1):
            assert (p - 1) ** 2 + k * (p - 1) * (2 * p - 1) \
                < 2 ** slot_width(p, k)


def check_scale_slots(p, c, n, slots):
    w = slot_width(p, n)
    v = sum(x << (w * i) for i, x in enumerate(slots))
    out = rank_module._scale_slots(v, c, p, w, even_slots(w, n))
    assert out >> (w * n) == 0
    for x, y in zip(slots, unpack(out, w, n)):
        assert 0 <= y < 2 * p and (y - x * c) % p == 0


def test_scale_slots_matches_per_slot_arithmetic():
    rng = random.Random(22)
    for p in PRIMES:
        for n in (1, 2, 3, 4, 7, 64, 199, 230, 231):
            top = 2 ** slot_width(p, n) - 1
            for c in (1, p - 1, rng.randrange(1, p)):
                for slots in ([0] * n, [top] * n,
                              [rng.randint(0, top) for _ in range(n)],
                              [rng.choice((0, 1, p - 1, p, 2 * p - 1, top))
                               for _ in range(n)]):
                    check_scale_slots(p, c, n, slots)


@st.composite
def scale_case(draw):
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 40))
    top = 2 ** slot_width(p, n) - 1
    slots = draw(st.lists(st.one_of(st.integers(0, top),
                                    st.integers(top - 2 * p, top)),
                          min_size=n, max_size=n))
    return p, draw(st.integers(1, p - 1)), n, slots


@settings(max_examples=300, deadline=None)
@given(scale_case())
def test_scale_slots_is_congruent_and_below_2p(case):
    check_scale_slots(*case)


@st.composite
def long_and_short_sides(draw):
    """A matrix up to 12 x 30 or 30 x 12 with zero rows and columns
    inserted; sometimes the first s vectors along the longer side are
    multiples of a later one, so the walk must read past them."""
    p = draw(st.sampled_from(PRIMES))
    short, long = draw(st.integers(1, 12)), draw(st.integers(1, 30))
    m, n = (long, short) if draw(st.booleans()) else (short, long)
    entry = st.one_of(st.integers(-3 * p, 3 * p), st.integers(-3, 3))
    rows = draw_rows(draw, m, n, entry)
    for j in draw(st.lists(st.integers(0, n), max_size=3)):
        for row in rows:
            row.insert(j, 0)
    m, n = len(rows), len(rows[0])
    if draw(st.booleans()):
        vecs = rows if m >= n else [list(c) for c in zip(*rows)]
        s = min(m, n)
        if len(vecs) > s:
            later = vecs[draw(st.integers(s, len(vecs) - 1))]
            for i in range(s):
                c = draw(st.integers(-3, 3))
                vecs[i] = [c * x for x in later]
            rows = vecs if m >= n else [list(r) for r in zip(*vecs)]
    return p, rows


@settings(max_examples=300, deadline=None)
@given(long_and_short_sides())
def test_rank_mod_p_is_the_same_along_either_side(case):
    p, rows = case
    transpose = [list(col) for col in zip(*rows)]
    assert rank_mod_p(rows, p) == rank_mod_p(transpose, p) \
        == textbook_rank_mod_p(rows, p)


def test_rank_mod_p_rejects_non_integer_entries():
    # in the third and fourth cases the last column is never read: the
    # first two already give rank 2, the most two rows can have
    for rows in ([[Fraction(1, 2), 1], [1, 2]], [[1, 2], [0.5, 1]],
                 [[1, 0, Fraction(1, 2)], [0, 1, 0]], [[1, 0, 0.5], [0, 1, 0]],
                 [[0, Fraction(0)], [1, 2]]):
        with pytest.raises(TypeError, match="rank_mod_p needs integer entries"):
            rank_mod_p(rows, 7)


SCREEN = 2 ** 61 - 1


@st.composite
def exact_matrix(draw):
    m = draw(st.integers(1, 10))
    n = draw(st.integers(1, 8 if m > 8 else 10))
    entry = st.one_of(st.integers(-9, 9), st.integers(-2 ** 80, 2 ** 80),
                      st.sampled_from((SCREEN, -SCREEN, 2 * SCREEN)))
    rows = draw_rows(draw, m, n, entry)
    # dividing a row by a nonzero integer keeps the rank
    dens = draw(st.lists(st.integers(1, 12), min_size=len(rows),
                         max_size=len(rows)))
    return [[Fraction(x, d) for x in row] if d > 1 else row
            for row, d in zip(rows, dens)]


@settings(max_examples=400, deadline=None)
@given(exact_matrix())
def test_rank_exact_matches_bareiss(rows):
    before = [list(row) for row in rows]
    assert rank_exact(rows) == bareiss_rank(rows)
    assert rows == before


def test_rank_exact_falls_back_when_the_screen_falls_short(monkeypatch):
    calls = []

    def counted(rows):
        calls.append(rows)
        return bareiss_rank(rows)

    monkeypatch.setattr(rank_module, "matrix_rank", counted)
    p = SCREEN
    cases = [
        ([[p, 0], [0, p]], 2),                 # zero mod p, rank 2
        ([[1, 0], [0, 0], [0, p]], 2),         # an all-zero row besides
        ([[Fraction(p, 3), 1], [0, p]], 2),    # rational rows scale first
        ([[1, 2, 3], [2, 4, 6]], 1),           # truly rank-deficient
        ([[2, 4], [3, 6], [0, 0]], 1),
    ]
    for rows, expected in cases:
        assert rank_exact(rows) == expected
    # every case fell short mod p and went on to Bareiss exactly once
    assert len(calls) == len(cases)


def test_full_rank_matrices_never_reach_bareiss(monkeypatch):
    def refuse(rows):
        raise AssertionError("a full mod-p rank went on to Bareiss")

    monkeypatch.setattr(rank_module, "matrix_rank", refuse)
    rng = random.Random(5)
    for m, n in ((1, 1), (3, 3), (8, 10), (10, 8), (36, 45), (45, 36)):
        rows = [[rng.randint(1, 2 ** 16) for _ in range(n)] for _ in range(m)]
        assert rank_exact(rows) == min(m, n)
    # zero rows do not count towards the largest possible rank
    assert rank_exact([[0, 0, 0], [1, 2, 3], [0, 0, 0], [4, 5, 7]]) == 2
    assert rank_exact([[Fraction(1, 2), 1], [1, Fraction(1, 3)]]) == 2
    assert rank_exact([]) == 0


def test_rank_config_trials_are_capped():
    assert rank_module.MAX_TRIALS == 1000
    assert RankConfig(trials=1000).trials == 1000
    for trials in (1001, 10**20):
        with pytest.raises(ValueError, match="trials must be at most 1000"):
            RankConfig(trials=trials)
