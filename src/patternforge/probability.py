"""Closed-form threshold formulas and Monte Carlo estimation for random
permutation matrices avoiding all-ones interval minors.

The quantities here revolve around one scenario: a random d-dimensional
permutation matrix of side k, tested for containing the all-ones pattern of
side `ell` on every axis as an interval minor.  Above an explicit side
threshold the avoidance probability drops below 1/ell; the chain of four
expressions in `probability_chain` is the closed-form route to that bound,
and `avoid_probability` measures the event directly by seeded sampling.
The bound rests on the paper's equal split: a permutation whose split into
ell^d equal blocks hits every block contains the pattern.  A trial draws
the permutation as columns from one generator per estimate, set to the
trial's seeded start state, reads the block of each 1 off them in a table
built once per estimate, and builds the ones for the exact decider only
when the split misses a block; the misses are reported as
`equal_split_misses`, the event the union bound bounds.
`probability_chain` compares floats; only `ChainReport.final_bound_exact` and
`ratio_lower_bound` are exact rationals (Fraction).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Iterator

from .construct import _permutation_columns, _swap_bounds
from .containment import _allones_decider
from .errors import PreconditionError, RangeError, StructureError
from .tensor import all_ones

_Z99 = 2.5758293035489004  # two-sided 99% normal quantile, norm.ppf(0.995)


def side_threshold(ell: int, d: int) -> int:
    """Smallest integer k with k >= (d+1) * (2*ell)^d * ln(ell).

    Past this side, the avoidance probability bound 1/ell applies.
    """
    if ell < 2:
        raise RangeError(f"need ell >= 2 (ln ell must be positive), got {ell}")
    if d < 2:
        raise RangeError(f"need d >= 2, got {d}")
    return math.ceil((d + 1) * (2 * ell) ** d * math.log(ell))


@dataclass(frozen=True)
class EllReport:
    """Block side derived from a permutation side, with the threshold check
    the derivation leans on."""

    k: int
    d: int
    ell: int
    degenerate: bool  # ell == 1: the floor clamped, no bound applies
    threshold: int | None  # side_threshold(ell, d) when ell >= 2
    threshold_ok: bool | None  # k >= threshold

    def to_json(self) -> dict:
        return asdict(self)


def ell_from_k(k: int, d: int) -> EllReport:
    """Largest usable block side for a given permutation side:
    ell = 20 * floor(((k / ((d+1) ln k))^(1/d) / 2 - 1) / 20) + 1,
    with the floor clamped at zero so tiny k degenerate to ell = 1.

    ell - 1 is always a multiple of 20; whenever ell >= 2 the report also
    states whether k clears side_threshold(ell, d), which is the premise the
    formula is designed to satisfy.
    """
    if k < 3:
        raise RangeError(f"need k >= 3, got {k}")
    if d < 2:
        raise RangeError(f"need d >= 2, got {d}")
    inner = 0.5 * (k / ((d + 1) * math.log(k))) ** (1 / d) - 1
    ell = 20 * max(0, math.floor(inner / 20)) + 1
    if ell < 2:
        return EllReport(k=k, d=d, ell=ell, degenerate=True, threshold=None, threshold_ok=None)
    thr = side_threshold(ell, d)
    return EllReport(
        k=k, d=d, ell=ell, degenerate=False, threshold=thr, threshold_ok=k >= thr
    )


@dataclass(frozen=True)
class ChainReport:
    """The four chained expressions bounding the per-block miss probability.

    values = (base, halved, exponential, final); strict means each is less
    than the next.  final_bound_exact is 1 / ell^(d+1) as an exact rational;
    times the ell^d block count it is exactly 1/ell.
    """

    k: int
    ell: int
    d: int
    values: tuple[float, float, float, float]
    strict: bool
    final_bound_exact: Fraction

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "ell": self.ell,
            "d": self.d,
            "values": list(self.values),
            "strict": self.strict,
            "final_bound_exact": [
                self.final_bound_exact.numerator,
                self.final_bound_exact.denominator,
            ],
        }


def probability_chain(k: int, ell: int, d: int) -> ChainReport:
    """Evaluate the four-step bound chain

        (1 - (1/ell - 1/k)^(d-1))^(k/ell - 1)
          < (1 - 1/(2 ell)^(d-1))^(k/(2 ell))
          < exp(-k / (2 ell)^d)
          < ell^-(d+1)

    and report whether each inequality is strict.  Requires k >= 2*ell >= 4.
    The chain can legitimately degenerate at the edge of that range (at
    k = 2*ell the first two expressions coincide, and the final inequality
    needs k past the side threshold); the report's `strict` is False there,
    and only a strict chain bounds the per-block miss probability.
    """
    if ell < 2:
        raise PreconditionError(f"need ell >= 2, got {ell}")
    if d < 2:
        raise PreconditionError(f"need d >= 2, got {d}")
    if k < 2 * ell:
        raise PreconditionError(f"need k >= 2*ell = {2 * ell}, got {k}")
    base = (1 - (1 / ell - 1 / k) ** (d - 1)) ** (k / ell - 1)
    halved = (1 - 1 / (2 * ell) ** (d - 1)) ** (k / (2 * ell))
    exponential = math.exp(-k / (2 * ell) ** d)
    final = ell ** -(d + 1)
    values = (base, halved, exponential, final)
    return ChainReport(
        k=k,
        ell=ell,
        d=d,
        values=values,
        strict=base < halved < exponential < final,
        final_bound_exact=Fraction(1, ell ** (d + 1)),
    )


@dataclass(frozen=True)
class EstimateReport:
    """Monte Carlo estimate of the interval-minor avoidance probability."""

    k: int
    ell: int
    d: int
    trials: int
    avoid_count: int
    undecided: int  # always 0: all-ones targets are decided without a budget
    estimate: float  # avoid_count / trials
    conf99: float  # normal-approximation radius at 99%
    seed: int
    # trials whose equal split left a block empty, avoiding or not; every
    # avoiding trial is one of them
    equal_split_misses: int

    def __post_init__(self):
        if not 0 <= self.avoid_count <= self.trials:
            raise StructureError("avoid count outside 0..trials")
        if not self.avoid_count <= self.equal_split_misses <= self.trials:
            raise StructureError("equal-split misses outside avoid_count..trials")
        if not 0.0 <= self.estimate <= 1.0:
            raise StructureError("estimate outside [0, 1]")

    def to_json(self) -> dict:
        return asdict(self)


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of an integer n >= 0, the words numpy's
    `SeedSequence` splits it into (0 gives one word)."""
    words = [n & 0xFFFFFFFF]
    n >>= 32
    while n:
        words.append(n & 0xFFFFFFFF)
        n >>= 32
    return words


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64's
# seeding multiplier (numpy/random/src/pcg64)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
# trials whose start states one numpy pass computes; a power of two up to
# 2**32, so that the words of t above the lowest stay fixed within a chunk
_STATE_CHUNK = 1024


def _trial_states(seed: int, start: int, stop: int) -> Iterator[dict]:
    """The `state` of `PCG64(SeedSequence([seed, t]))` for t = start .. stop-1,
    computed in one vectorised numpy pass per chunk of `_STATE_CHUNK` trials.

    SeedSequence reads [seed, t] as the entropy words `_uint32_words(seed) +
    _uint32_words(t)`, so a chunk's words differ in the lowest word of t only.
    """
    if start >= stop:  # no trial, and numpy stays unloaded
        return
    import numpy as np

    seed_words = _uint32_words(seed)
    lo = start
    while lo < stop:
        hi = min(stop, (lo // _STATE_CHUNK + 1) * _STATE_CHUNK)
        entropy = np.array(seed_words + _uint32_words(lo), np.uint32)[:, None]
        entropy = np.repeat(entropy, hi - lo, axis=1)
        entropy[len(seed_words)] += np.arange(hi - lo, dtype=np.uint32)
        yield from _pcg64_states(entropy)
        lo = hi


def _hash_keys(first: int, mult: int, count: int) -> list[int]:
    """first, first * mult, first * mult**2, ... modulo 2**32."""
    keys = [first]
    for _ in range(count - 1):
        keys.append(keys[-1] * mult & 0xFFFFFFFF)
    return keys


@functools.lru_cache(maxsize=8)
def _hash_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The hash keys `_pcg64_states` uses for n entropy words, read-only:
    per mixing step and pool word, the key its call xors with and the key
    it multiplies by, and the keys of `generate_state`'s chain."""
    import numpy as np

    # the call numbers of each mixing step, one per pool word, in the order
    # SeedSequence makes the calls; a pool word mixed into the others keeps
    # its value, and 0 stands in for its call
    numbers = itertools.count()
    calls = [[next(numbers) for _ in range(4)]]
    calls += [[0 if dst == src else next(numbers) for dst in range(4)] for src in range(4)]
    calls += [[next(numbers) for _ in range(4)] for _ in range(n - 4)]
    keys = np.array(_hash_keys(_INIT_A, _MULT_A, next(numbers) + 1), np.uint32)
    calls = np.array(calls)[:, :, None]
    chain = np.array(_hash_keys(_INIT_B, _MULT_B, 9), np.uint32)[:, None]
    tables = keys[calls], keys[calls + 1], chain
    for table in tables:
        table.flags.writeable = False
    return tables


def _pcg64_states(entropy: np.ndarray) -> Iterator[dict]:
    """`PCG64(SeedSequence(words)).state` for the uint32 entropy words of
    each column of `entropy`, one column per seed.

    This is numpy's SeedSequence with its pool of four words, one row per
    word and one column per seed.  Hash call c of a chain xors its value
    with key c, multiplies it by key c + 1 and xors in its own top half.
    Mixing fills the pool with one call on each of the first four entropy
    words (zero past the last); then, for each pool word in turn, it makes
    three calls on that word and mixes each result into one of the other
    three; then, for each entropy word past the fourth, it makes four calls
    on it and mixes each result into one pool word.  `generate_state(4,
    np.uint64)` hashes the pool words twice round with a second chain into
    eight 32-bit words and pairs them, low word first.  PCG64 reads the four
    64-bit words as the high and low halves of two 128-bit integers,
    initstate and initseq, and starts from inc = 2 * initseq + 1 and
    state = (inc + initstate) * mult + inc, modulo 2**128.
    """
    import numpy as np

    def hashed(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
        out = (values ^ xor) * mul
        return out ^ out >> 16

    def mixed(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = _MIX_MULT_L * x - _MIX_MULT_R * y
        return out ^ out >> 16

    n = len(entropy)
    xor, mul, keys = _hash_tables(n)
    pool = np.zeros((4, entropy.shape[1]), np.uint32)
    pool[: min(n, 4)] = entropy[:4]
    pool = hashed(pool, xor[0], mul[0])
    for src in range(4):
        out = mixed(pool, hashed(pool[src], xor[1 + src], mul[1 + src]))
        out[src] = pool[src]
        pool = out
    for step, word in enumerate(entropy[4:], start=5):
        pool = mixed(pool, hashed(word, xor[step], mul[step]))
    out = hashed(np.concatenate((pool, pool)), keys[:-1], keys[1:]).astype(np.uint64)
    words = (out[0::2] | out[1::2] << np.uint64(32)).tolist()
    for a, b, c, e in zip(*words):
        inc = ((c << 64 | e) << 1 | 1) & _MASK128
        state = (((a << 64 | b) + inc) * _PCG64_MULT + inc) & _MASK128
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
               "has_uint32": 0, "uinteger": 0}


def avoid_probability(
    k: int,
    ell: int,
    d: int,
    trials: int,
    seed: int,
) -> EstimateReport:
    """Fraction of seeded random permutations avoiding the all-ones side-ell
    pattern as an interval minor.

    Trials run one after another on one thread; trial t uses the seed stream
    (seed, t) and draws the same permutation as `random_permutation(k, d,
    SeedSequence([seed, t]))`, as d-1 columns, each checked to be a
    permutation.  What depends only on (k, ell, d, seed) is built once per
    estimate: the swap bounds of the shuffles, the table of the part of
    the equal split each coordinate falls in (every axis has extent k and
    ell parts), and one PCG64 generator.  The generator's start state for
    every trial comes from `_trial_states`, one numpy pass per chunk of
    trials, and is set before the trial draws; `Generator.integers` makes
    every bounded draw.  A trial looks up the block of each of its ones in
    the table; one whose split hits every block contains the pattern.  Only
    a trial whose split misses a block, counted in `equal_split_misses`,
    builds its set of ones for the exact sweep that `_allones_decider`
    picks.  With k < ell^d there are fewer ones than blocks, so every trial
    avoids and misses, and none is drawn.  Each trial is decided exactly,
    so `undecided` is 0.
    """
    if trials < 1:
        raise PreconditionError(f"need trials >= 1, got {trials}")
    if k < 1 or ell < 1:
        raise RangeError(f"need k >= 1 and ell >= 1, got k={k}, ell={ell}")
    if d < 2:
        raise RangeError(f"need d >= 2, got {d}")
    if seed < 0:
        raise RangeError(f"need seed >= 0, got {seed}")
    blocks = ell**d
    # fewer ones than blocks: every trial avoids and misses, and none is drawn
    drawn = trials if k >= blocks else 0
    avoid_count = misses = trials - drawn
    if drawn:
        import numpy as np

        # first, so that a side too large to shuffle is refused before
        # anything of size k is built
        highs = _swap_bounds(k, d)
        part = [0] + [c * ell // k for c in range(k)]  # part[c] = (c-1)*ell//k
        first_axis_parts = part[1:]
        decide = _allones_decider(all_ones((ell,) * d), (k,) * d, k)
        bits = np.random.PCG64(0)  # every trial sets its own state
        rng = np.random.Generator(bits)
    for t, state in enumerate(_trial_states(seed, 0, drawn)):
        bits.state = state
        cols = _permutation_columns(k, d, rng, highs)
        for axis, col in enumerate(cols, start=2):
            if len(set(col)) != k:
                raise StructureError(f"axis {axis}: trial {t} drew no permutation")
        hit_blocks = set(zip(first_axis_parts, *(map(part.__getitem__, col) for col in cols)))
        if len(hit_blocks) == blocks:
            continue
        misses += 1
        ones = set(zip(range(1, k + 1), *cols))
        avoid_count += not decide(ones)
    p = avoid_count / trials
    radius = _Z99 * math.sqrt(p * (1 - p) / trials)
    return EstimateReport(
        k=k,
        ell=ell,
        d=d,
        trials=trials,
        avoid_count=avoid_count,
        undecided=0,
        estimate=p,
        conf99=radius,
        seed=seed,
        equal_split_misses=misses,
    )


def ratio_lower_bound(value_at_m: int | Fraction, m: int, d: int) -> Fraction:
    """Exact rational lower bound that one measured extremal value imposes on
    the value/n^(d-1) ratio at every larger side:

        value_at_m / (2^(d-1) * (d-1)! * m^(d-1))

    The same form serves both containment orders.
    """
    if m < 1:
        raise RangeError(f"need m >= 1, got {m}")
    if d < 1:
        raise RangeError(f"need d >= 1, got {d}")
    value = Fraction(value_at_m)
    if value < 0:
        raise RangeError(f"need a nonnegative value, got {value_at_m}")
    return value / (2 ** (d - 1) * math.factorial(d - 1) * m ** (d - 1))
