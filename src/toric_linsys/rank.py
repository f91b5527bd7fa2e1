"""Monte Carlo modular rank engine with an exact integer mode.

Generic rank of a matrix whose entries are polynomials in the point
coordinates is obtained as the maximum rank over independent trials, each
evaluating at uniform nonzero coordinates in a fresh prime field. By
Schwartz-Zippel a trial misses the generic rank with probability at most
(degree of a nonzero maximal minor) / p, negligible for 61-bit primes.
Each trial's rank is a lower bound on the generic rank: a minor that is
nonzero mod p is nonzero as an integer polynomial.

The modular elimination is one left-looking kernel, `_eliminate`. Its
input is a sequence of vectors, each packed into one integer, w bits per
slot, slot 0 lowest (Kronecker substitution), and s, the largest rank the
vectors can have. `rank_mod_p` drops zero rows and lets the longer side of
the rest (rows, or columns if fewer) supply the vectors and the shorter
side, of length s, the slots; its entries are reduced mod p once, when
packed, so its slots start below p. A modular trial (`linsys`) packs its
matrix's columns as the vectors, straight from two factor tables, so it
may have more slots than vectors; each of its slots, the product of two
residues, starts below p^2.

Each vector is walked from slot 0 against an echelon basis of at most one
pivot per slot. A slot with a pivot takes `(v >> w) + (p - f) * tail`, f
the slot mod p and tail the pivot's normalised rest: the slot drops and each
later one gains less than 2p^2. At a slot with no pivot, f != 0 makes v the
pivot there; a vector that reaches 0 is dependent. Reading stops at rank s,
so a wide matrix of full row rank costs about s^3 / 3 slot updates and never
touches the columns left without a pivot. A new pivot's rest is scaled by
1/f on all its slots at once (`_scale_slots`), which leaves each tail slot
in [0, 2p). A vector takes at most one update per pivot, fewer than s, so a
slot stays nonnegative and below p^2 + 2s * p^2 < 2^w for
w = 8 * ceil((2 * bits(p) + bits(s) + 2) / 8): no slot carries into the
next, and each slot stays congruent mod p to its entry. The width has room
to spare: 2^w >= 4 * 2^bits(s) * 2^(2 bits(p)) > 4s * p^2 > (2s + 1) * p^2.

An exact trial evaluates at random positive integer points. It is screened
mod _SCREEN_PRIME = 2^61 - 1 by the packed trial kernel (`linsys`), and
`rank_exact` screens any integer matrix the same way: a nonzero minor mod
p is a nonzero integer minor, so a mod-p rank of min(nonzero rows, cols) is
the rank over Q. Below that, fraction-free (Bareiss) elimination of the
integer matrix decides; an exact trial builds that matrix only then. Its
rank too is a lower bound on the generic rank.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from math import gcd, isqrt, prod

from .linalg import _integer_rows, _require_ints, rank as matrix_rank

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
_SCREEN_PRIME = (1 << 61) - 1  # the one prime of every exact rank's screen


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


@lru_cache(maxsize=_TRIAL_PRIMES)
def _trial_prime_draws(tseed: int, bits: int) -> tuple:
    return _prime_search(bits, random.Random(tseed))


def trial_prime(tseed: int, bits: int) -> tuple:
    """(prime, rng): the prime of _prime_search(bits, rng) for rng =
    Random(tseed), and rng advanced past its draws. The search runs once per
    (tseed, bits); a repeat replays its draws on a fresh rng."""
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


def _scale_slots(v: int, c: int, p: int, w: int, evens: int) -> int:
    """Each w-bit slot x of v (x < 2^w) replaced by x c - q p in [0, 2p),
    q = floor(x floor(c 2^w / p) / 2^w): Barrett reduction by a fixed
    factor c < p (Shoup's form). Even and odd slots go apart, in 2w-bit
    fields whose low halves `evens` masks, so no product carries over."""
    cw = (c << w) // p
    even, odd = v & evens, v >> w & evens
    even = even * c - (even * cw >> w & evens) * p
    odd = odd * c - (odd * cw >> w & evens) * p
    return even | odd << w


def _slot_bytes(p: int, s: int) -> int:
    """w / 8 for w = 8 * ceil((2 bits(p) + bits(s) + 2) / 8)."""
    return (2 * p.bit_length() + s.bit_length() + 9) // 8


def _eliminate(vectors, nslots: int, s: int, p: int, nbytes: int) -> int:
    """Rank mod p of packed vectors of `nslots` slots, `nbytes` bytes each,
    read until the rank reaches s >= the rank."""
    w = 8 * nbytes
    mask = (1 << w) - 1
    evens = int.from_bytes((b"\xff" * nbytes + bytes(nbytes)) * (nslots // 2 + 1),
                           "little")  # the low w bits of each 2w-bit field
    tails = [None] * nslots  # tails[j]: the pivot at slot j past its leading 1
    rk = 0
    for v in vectors:
        if rk == s:
            break
        for j, tail in enumerate(tails):
            f = (v & mask) % p
            if not f:
                if not v:
                    break  # v is dependent on the pivots
                v >>= w
            elif tail is not None:
                v = (v >> w) + (p - f) * tail
            else:
                tails[j] = _scale_slots(v >> w, pow(f, -1, p), p, w, evens)
                rk += 1
                break
    return rk


def rank_mod_p(rows, p: int) -> int:
    """Rank of an integer matrix over the field with p elements; `rows` is
    not modified."""
    _require_ints(rows, "rank_mod_p")
    ncols = len(rows[0]) if rows else 0
    a = [row for row in rows if any(row)]
    s = min(len(a), ncols)
    nbytes = _slot_bytes(p, s)
    vectors = (int.from_bytes(b"".join([(x % p).to_bytes(nbytes, "little")
                                        for x in vec]), "little")
               for vec in (a if len(a) >= ncols else zip(*a)))
    return _eliminate(vectors, s, s, p, nbytes)


def rank_exact(rows) -> int:
    """Rank over the rationals: proved by a full rank mod 2^61 - 1 when it
    has one, else by fraction-free (Bareiss) elimination."""
    a = _integer_rows(rows)
    full = min(sum(1 for row in a if any(row)), len(a[0]) if a else 0)
    if rank_mod_p(a, _SCREEN_PRIME) == full:
        return full
    return matrix_rank(a)
