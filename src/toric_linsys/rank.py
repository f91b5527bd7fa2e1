"""Monte Carlo modular rank engine with an exact rational mode.

Generic rank of a matrix whose entries are polynomials in the point
coordinates is obtained as the maximum rank over independent trials, each
evaluating at uniform nonzero coordinates in a fresh prime field. By
Schwartz-Zippel a trial misses the generic rank with probability at most
(degree of a nonzero maximal minor) / p, negligible for 61-bit primes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# deterministic Miller-Rabin witnesses, valid for all n < 3.3 * 10^24
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
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


def random_prime(bits: int, rng: random.Random) -> int:
    """Uniform-ish prime in [2^(bits-1), 2^bits)."""
    if bits < 3:
        raise ValueError("need at least 3 bits")
    while True:
        cand = rng.getrandbits(bits - 1) | (1 << (bits - 1)) | 1
        if is_prime(cand):
            return cand


@dataclass(frozen=True)
class RankConfig:
    trials: int = 5
    prime_bits: int = 61
    seed: int = 0
    exact: bool = False

    def __post_init__(self):
        # zero trials would report every system as special with no evidence
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.prime_bits < 3:
            raise ValueError("prime_bits must be at least 3")


@dataclass(frozen=True)
class TrialEvidence:
    prime: int | None      # None for an exact rational trial
    seed: int
    rank: int


def rank_mod_p(rows, p: int) -> int:
    """Rank of an integer matrix over the field with p elements."""
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


def rank_exact(rows) -> int:
    """Rank over the rationals.

    Integer matrices go through fraction-free (Bareiss) elimination, whose
    intermediate entries are exact minors; anything else falls back to
    Fraction elimination.
    """
    if rows and all(isinstance(x, int) for row in rows for x in row):
        return _rank_bareiss(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    if not a or not a[0]:
        return 0
    ncols = len(a[0])
    rk = 0
    for col in range(ncols):
        piv = None
        for i in range(rk, len(a)):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[rk], a[piv] = a[piv], a[rk]
        prow = a[rk]
        inv = 1 / prow[col]
        for i in range(rk + 1, len(a)):
            if a[i][col] != 0:
                f = a[i][col] * inv
                a[i] = [x - f * y for x, y in zip(a[i], prow)]
        rk += 1
        if rk == len(a):
            break
    return rk


def _rank_bareiss(rows) -> int:
    a = [list(r) for r in rows]
    m = len(a)
    ncols = len(a[0]) if a else 0
    rk = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for i in range(rk, m):
            if a[i][col]:
                piv = i
                break
        if piv is None:
            continue
        a[rk], a[piv] = a[piv], a[rk]
        prow = a[rk]
        pivval = prow[col]
        for i in range(rk + 1, m):
            ai = a[i]
            f = ai[col]
            a[i] = [(x * pivval - f * y) // prev for x, y in zip(ai, prow)]
        prev = pivval
        rk += 1
        if rk == m:
            break
    return rk


def trial_seeds(cfg: RankConfig):
    master = random.Random(cfg.seed)
    return tuple(master.getrandbits(63) for _ in range(cfg.trials))
