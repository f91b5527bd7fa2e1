"""Monte Carlo modular rank engine with an exact integer mode.

Generic rank of a matrix whose entries are polynomials in the point
coordinates is obtained as the maximum rank over independent trials, each
evaluating at uniform nonzero coordinates in a fresh prime field. By
Schwartz-Zippel a trial misses the generic rank with probability at most
(degree of a nonzero maximal minor) / p, negligible for 61-bit primes.
Each trial's rank is a lower bound on the generic rank: a minor that is
nonzero mod p is nonzero as an integer polynomial.

The modular elimination delays reduction: only the pivot row is reduced
mod p, and the rows below are updated as exact integers congruent to their
field values, without a reduction per entry. An entry grows by less than
p^2 per pivot, so at 200 pivots and a 61-bit prime it stays near 130 bits,
and each row drops its first entry after every column, so the rows shrink
as the elimination moves right.

An exact trial evaluates at random positive integer points and takes the
rank over the rationals by fraction-free (Bareiss) elimination, never
leaving the integers. Like a modular trial it is a lower bound on the
generic rank, not a proof of it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import repeat
from operator import mul, sub

from .linalg import rank as matrix_rank

# deterministic Miller-Rabin witnesses, valid for all n below _MR_BOUND, the
# smallest strong pseudoprime to all twelve bases (Sorenson-Webster 2017)
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461
MAX_PRIME_BITS = 78  # 2^78 < _MR_BOUND


def is_prime(n: int) -> bool:
    """Deterministic primality for n < _MR_BOUND; raises ValueError above."""
    if n >= _MR_BOUND:
        raise ValueError(f"is_prime is only decided below {_MR_BOUND}")
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
        if self.prime_bits > MAX_PRIME_BITS:
            raise ValueError(f"prime_bits must be at most {MAX_PRIME_BITS}")


@dataclass(frozen=True)
class TrialEvidence:
    prime: int | None      # None for an exact integer trial
    seed: int
    rank: int


def rank_mod_p(rows, p: int) -> int:
    """Rank of an integer matrix over the field with p elements; `rows` is
    not modified."""
    a = [list(row) for row in rows]
    rk = 0
    while a and a[0]:
        piv = next((i for i, row in enumerate(a) if row[0] % p), None)
        if piv is None:
            a = [row[1:] for row in a]
            continue
        prow = a.pop(piv)
        inv = pow(prow[0] % p, -1, p)
        tail = [y * inv % p for y in prow[1:]]
        rk += 1
        for i, row in enumerate(a):
            f = row[0] % p
            a[i] = list(map(sub, row[1:], map(mul, repeat(f), tail))) \
                if f else row[1:]
    return rk


def rank_exact(rows) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination; the
    intermediate entries of an integer matrix are exact integer minors."""
    return matrix_rank(rows)
