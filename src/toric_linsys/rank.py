"""Monte Carlo modular rank engine with an exact integer mode.

Generic rank of a matrix whose entries are polynomials in the point
coordinates is obtained as the maximum rank over independent trials, each
evaluating at uniform nonzero coordinates in a fresh prime field. By
Schwartz-Zippel a trial misses the generic rank with probability at most
(degree of a nonzero maximal minor) / p, negligible for 61-bit primes.
Each trial's rank is a lower bound on the generic rank: a minor that is
nonzero mod p is nonzero as an integer polynomial.

The modular elimination packs each row into one integer, a slot of w bits
per column with column 0 in the lowest slot (Kronecker substitution), and
delays reduction: entries are reduced mod p once, when packed, and only the
pivot row's tail is reduced again, to normalise it. Every other row takes
`(v >> w) + (p - f) * tail`, which drops its first column and adds less
than p^2 to each slot. A row takes at most k = min(rows, cols) updates, so
a slot stays nonnegative and below p + k * p^2 < 2^w for
w = 8 * ceil((2 * bits(p) + bits(k) + 2) / 8): no slot carries into the
next, and each slot stays congruent mod p to its field entry.

An exact trial evaluates at random positive integer points. A nonzero
minor mod 2^61 - 1 is a nonzero integer minor, so a mod-p rank of
min(nonzero rows, cols) is the rank over Q; below that, fraction-free
(Bareiss) elimination decides. It too is a lower bound on the generic rank.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from math import gcd, isqrt, prod

from .linalg import _integer_rows, rank as matrix_rank

_SMALL_PRIMES = frozenset(q for q in range(2, 300)
                          if all(q % d for d in range(2, isqrt(q) + 1)))
_PRIMORIAL = prod(_SMALL_PRIMES)
# deterministic Miller-Rabin bases: Sinclair's seven for n < 2^64, and the
# twelve primes 2..37 below _MR_BOUND, the smallest strong pseudoprime to
# all twelve (Sorenson-Webster 2017)
_MR_BASES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461
MAX_PRIME_BITS = 78  # 2^78 < _MR_BOUND
_TRIAL_PRIMES = 256  # (tseed, bits) prime searches trial_prime remembers
MAX_TRIALS = 1000  # a larger trial count is an input error, not a long run


def is_prime(n: int) -> bool:
    """Deterministic primality for n < _MR_BOUND; raises ValueError above."""
    if n >= _MR_BOUND:
        raise ValueError(f"is_prime is only decided below {_MR_BOUND}")
    if n < 2:
        return False
    if gcd(n, _PRIMORIAL) != 1:
        return n in _SMALL_PRIMES
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES_64 if n < 1 << 64 else _MR_BASES:
        # n has no prime factor below 300, so n divides a base only when n
        # is its prime factor 407521 or 299210837; that base proves nothing
        a %= n
        if a == 0:
            continue
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


def _prime_search(bits: int, rng: random.Random) -> tuple:
    """(prime, draws): the first prime among rng's `bits`-bit candidates,
    and how many rng.getrandbits(bits - 1) calls drew them."""
    if bits < 3:
        raise ValueError("need at least 3 bits")
    for draws in count(1):
        cand = rng.getrandbits(bits - 1) | (1 << (bits - 1)) | 1
        if is_prime(cand):
            return cand, draws


def random_prime(bits: int, rng: random.Random) -> int:
    """Uniform-ish prime in [2^(bits-1), 2^bits)."""
    return _prime_search(bits, rng)[0]


@lru_cache(maxsize=_TRIAL_PRIMES)
def _trial_prime_draws(tseed: int, bits: int) -> tuple:
    return _prime_search(bits, random.Random(tseed))


def trial_prime(tseed: int, bits: int) -> tuple:
    """(random_prime(bits, rng), rng) for rng = Random(tseed), searching
    once per (tseed, bits): a repeat replays the search's draws on rng."""
    prime, draws = _trial_prime_draws(tseed, bits)
    rng = random.Random(tseed)
    for _ in range(draws):
        rng.getrandbits(bits - 1)
    return prime, rng


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
        if self.trials > MAX_TRIALS:
            raise ValueError(f"trials must be at most {MAX_TRIALS}")
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
    ncols = len(rows[0]) if rows else 0
    # slot width w = 8 * ceil((2 bits(p) + bits(min(rows, cols)) + 2) / 8)
    nbytes = (2 * p.bit_length() + min(len(rows), ncols).bit_length() + 9) // 8
    w = 8 * nbytes
    mask = (1 << w) - 1
    try:
        a = [int.from_bytes(b"".join([(x % p).to_bytes(nbytes, "little")
                                      for x in row]), "little") for row in rows]
    except AttributeError:  # a Fraction or float has no to_bytes
        raise TypeError("rank_mod_p needs integer entries") from None
    a = [v for v in a if v]
    rk = 0
    for col in range(ncols):
        if not a:
            break
        lows = [(v & mask) % p for v in a]
        piv = next((i for i, f in enumerate(lows) if f), None)
        if piv is None:
            a = [v >> w for v in a]
            continue
        inv = pow(lows.pop(piv), -1, p)
        rest = (a.pop(piv) >> w).to_bytes((ncols - col - 1) * nbytes, "little")
        tail = int.from_bytes(b"".join([
            (int.from_bytes(rest[i:i + nbytes], "little") * inv % p)
            .to_bytes(nbytes, "little")
            for i in range(0, len(rest), nbytes)]), "little")
        rk += 1
        a = [(v >> w) + (p - f) * tail if f else v >> w
             for v, f in zip(a, lows)]
    return rk


def rank_exact(rows) -> int:
    """Rank over the rationals: proved by a full rank mod 2^61 - 1 when it
    has one, else by fraction-free (Bareiss) elimination."""
    a = _integer_rows(rows)
    full = min(sum(1 for row in a if any(row)), len(a[0]) if a else 0)
    if rank_mod_p(a, (1 << 61) - 1) == full:
        return full
    return matrix_rank(a)
