"""Closed-form threshold formulas and Monte Carlo estimation for random
permutation matrices avoiding all-ones interval minors.

The quantities here revolve around one scenario: a random d-dimensional
permutation matrix of side k, tested for containing the all-ones pattern of
side `ell` on every axis as an interval minor.  Above an explicit side
threshold the avoidance probability drops below 1/ell; the chain of four
expressions in `probability_chain` is the closed-form route to that bound,
and `avoid_probability` measures the event directly by seeded sampling.
The bound rests on the paper's equal split: a permutation whose split into
ell^d equal blocks hits every block contains the pattern.  A trial
shuffles the permutation's columns from the swap partners that numpy's
`Generator.integers` would draw from PCG64 seeded with `SeedSequence([seed,
t])`; this module computes them itself, seeding, stream and bounded draws,
in one numpy array pass per chunk of trials.  Only a trial in which a draw
rejects its word is drawn by numpy's generator, so `numpy.random` is loaded
only by an estimate that has such a trial.  The trial's shuffle moves
integer block codes, one list per axis built once per estimate, so the
block of each 1 is a sum of the codes at its position, and it builds the
ones for the exact decider only when the split misses a block; the misses
are reported as `equal_split_misses`, the event the union bound bounds.
`probability_chain` reports its four expressions as floats and decides
strictness on their logarithms, which do not underflow; only
`ChainReport.final_bound_exact` and `ratio_lower_bound` are exact rationals
(Fraction).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from typing import Iterable, Iterator

from .construct import _generator_swaps, _permutation_columns, _swap_bounds
from .containment import _allones_decider, _split_part
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

    `strict` compares the natural logarithms of the four expressions, a
    power's as its exponent times `log1p` of its base, which stay apart
    where the first terms underflow as floats (from k = 10,361 at ell = d =
    2 both read 0.0); `values` holds the floats themselves.
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
    logs = (
        (k / ell - 1) * math.log1p(-((1 / ell - 1 / k) ** (d - 1))),
        k / (2 * ell) * math.log1p(-1 / (2 * ell) ** (d - 1)),
        -k / (2 * ell) ** d,
        -(d + 1) * math.log(ell),
    )
    return ChainReport(
        k=k,
        ell=ell,
        d=d,
        values=values,
        strict=logs[0] < logs[1] < logs[2] < logs[3],
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
        # every field is a number, so a flat copy is what asdict would build
        return {f.name: getattr(self, f.name) for f in fields(self)}


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
_MASK32 = 0xFFFFFFFF
# the multiplier is 1 mod 4, so mult**j = 4 * a_j + 1 for an integer a_j, and
# j steps take a state s with increment inc to a_j * w + s, modulo 2**128,
# where w = 4 * s + inc * _INC_FACTOR and _INC_FACTOR inverts (mult - 1) / 4
_INC_FACTOR = pow((_PCG64_MULT - 1) >> 2, -1, 1 << 128)
# trials whose start states one numpy pass computes; a power of two up to
# 2**32, so that the words of t above the lowest stay fixed within a chunk
_STATE_CHUNK = 1024
# 64-bit outputs a chunk of draws holds at once, summed over its trials; a
# trial that needs more has a chunk of its own
_CHUNK_WORDS = 1 << 16


def _trial_states(seed: int, start: int, stop: int) -> Iterator[tuple[int, int]]:
    """The (state, inc) of `PCG64(SeedSequence([seed, t]))` for t = start ..
    stop-1, computed in one vectorised numpy pass per chunk of `_STATE_CHUNK`
    trials.

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


def _pcg64_states(entropy: np.ndarray) -> Iterator[tuple[int, int]]:
    """The (state, inc) of `PCG64(SeedSequence(words))` for the uint32
    entropy words of each column of `entropy`, one column per seed.

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
        yield (((a << 64 | b) + inc) * _PCG64_MULT + inc) & _MASK128, inc


def _words64(values: Iterable[int]) -> np.ndarray:
    """The 64-bit words of integers below 2**128, low word first."""
    import numpy as np

    return np.frombuffer(b"".join(v.to_bytes(16, "little") for v in values), "<u8")


def _halves(x: int) -> int:
    """The two 32-bit halves of the low word of x as the two words of a
    128-bit integer, low half first."""
    return (x & 0xFFFFFFFF00000000) << 32 | x & _MASK32


def _jumped_outputs(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """PCG64's output from state a_r * w + s, modulo 2**128, for every row
    (s, w) and column a_r.

    Each row of `rows` holds the 64-bit words s low, s high, w low, w high
    and the two 32-bit halves of w low; the four rows of `table` hold a low,
    a high and the two halves of a low for each column.  The product keeps
    its low 128 bits: the full product of the low words, whose high word is
    built from 32-bit halves, plus the cross products in the high word.
    Every step runs in place in four buffers.
    """
    import numpy as np

    s_lo, s_hi, w_lo, w_hi, b0, b1 = rows.T[:, :, None]
    a_lo, a_hi, a0, a1 = table
    x, y, z, hi = np.empty((4, len(rows), len(a_lo)), np.uint64)
    np.multiply(a0, b0, out=x)
    x >>= 32
    np.multiply(a1, b0, out=y)
    y += x
    np.bitwise_and(y, _MASK32, out=x)
    np.multiply(a0, b1, out=z)
    z += x
    np.multiply(a1, b1, out=hi)
    y >>= 32
    hi += y
    z >>= 32
    hi += z
    np.multiply(a_hi, w_lo, out=x)
    hi += x
    np.multiply(a_lo, w_hi, out=x)
    hi += x
    lo = np.multiply(a_lo, w_lo, out=y)
    lo += s_lo
    hi += s_hi
    hi += lo < s_lo  # the carry
    # XSL-RR: lo becomes the output
    lo ^= hi
    hi >>= 58
    np.right_shift(lo, hi, out=x)
    np.subtract(64, hi, out=hi)
    hi &= 63
    lo <<= hi
    lo |= x
    return lo


def _trial_swaps(seed: int, trials: int, highs: np.ndarray) -> Iterator[list[int]]:
    """What `Generator(PCG64(SeedSequence([seed, t]))).integers(0, highs)`
    draws, as a list, for t = 0 .. trials-1 and highs of at most 2**32.

    Each bounded draw reads one 32-bit word of the generator's stream (the
    low half of each 64-bit output, then its high half) and, by Lemire's
    method, multiplies it by its bound: the high half of the product is the
    draw, unless the low half falls below 2**32 mod bound, when the draw
    rejects the word and reads the next.  The draws run in chunks of at
    most `_STATE_CHUNK` trials and `_CHUNK_WORDS` outputs (but always one
    trial), each in one numpy pass that assumes no rejection: output j of a
    trial comes from state a_j * w + s (see `_INC_FACTOR`), with j = q *
    width + r, where the state and w after q * width steps come from Python
    integers per trial and a table of a_1 .. a_width, built once per
    estimate, takes numpy the other r steps.  Up to a trial's first
    rejection the pass reads the right words, so the trial has a rejection
    exactly when the pass finds one; such a trial, about one in eight at
    (28392, 4, 4) and almost none below k = 1,000, is drawn again by
    `_generator_swaps`.
    """
    import numpy as np

    bounds = highs.astype(np.uint64)
    # Lemire's method rejects a word whose low half falls below these
    rejects = np.uint64(1 << 32) % bounds
    draws = len(bounds)
    outputs = max(1, (draws + 1) // 2)  # k = 1 draws nothing, yet gets one
    per_chunk = min(_STATE_CHUNK, max(1, _CHUNK_WORDS // outputs), trials)
    # the table costs one Python step per column once, the rows one per row
    # of every trial: about sqrt(trials * outputs) columns balance the two
    steps = -(-outputs // max(1, min(outputs, math.isqrt(trials * outputs))))
    width = -(-outputs // steps)
    powers, p = [], 1
    for _ in range(width):
        p = p * _PCG64_MULT & (_MASK128 << 2 | 3)  # mult**r modulo 2**130
        powers.append(p >> 2)
    jump_a, jump_w = powers[-1], p & _MASK128
    table = _words64(v for a in powers for v in (a, _halves(a))).reshape(-1, 4).T
    states = _trial_states(seed, 0, trials)
    done = 0
    while chunk := list(itertools.islice(states, per_chunk)):
        rows = []
        for state, inc in chunk:
            w = (4 * state + inc * _INC_FACTOR) & _MASK128
            rows += (state, w, _halves(w))
            for _ in range(steps - 1):
                state = (jump_a * w + state) & _MASK128
                w = jump_w * w & _MASK128
                rows += (state, w, _halves(w))
        out = _jumped_outputs(_words64(rows).reshape(-1, 6), table)
        # the 32-bit words of each trial's stream, the low half of an output first
        words = np.asarray(out, "<u8").view("<u4").reshape(len(chunk), -1)
        m = words[:, :draws] * bounds
        rejected = ((m & _MASK32) < rejects).any(axis=1).tolist()
        m >>= 32
        for i, (redraw, row) in enumerate(zip(rejected, m.tolist())):
            yield _generator_swaps([seed, done + i], highs) if redraw else row
        done += len(chunk)


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
    SeedSequence([seed, t]))`, as d-1 columns.  What depends only on (k,
    ell, d, seed) is built once per estimate: the swap bounds of the
    shuffles, the part p(c) of the equal split each coordinate c falls in
    (every axis has extent k and ell parts, from `_split_part`), and for
    each axis j = 2..d the codes p(c) * ell^(j-1) for c = 1..k.  The swap
    partners of every trial come from `_trial_swaps`, which computes
    PCG64's stream and numpy's bounded draws itself, in one numpy pass per
    chunk of trials, and builds numpy's generator only for a trial in which
    a draw rejects its word.  A trial shuffles copies of the code lists with
    its swaps, so position i of axis j's list holds the code of that axis's
    coordinate of the i-th 1, and sums them position by position with the
    first axis's parts: the sum numbers the block of each 1, one number per
    block in 0 .. ell^d - 1, and a trial whose sums take all ell^d values
    hits every block and contains the pattern.  Only a trial whose split
    misses a block, counted in `equal_split_misses`, shuffles 1..k with the
    same swaps and builds its set of ones for the exact sweep that
    `_allones_decider` picks.  With k < ell^d there are fewer ones than
    blocks, so every trial avoids and misses, and none is drawn.  Each trial
    is decided exactly, so `undecided` is 0.
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
    draws: Iterator[list[int]] = iter(())
    if drawn:
        # first, so that a side too large to shuffle is refused before
        # anything of size k is built; the draws read 32-bit words
        if k > 2**32:
            raise RangeError(f"side k too large to shuffle (k > 2**32, got {k})")
        draws = _trial_swaps(seed, drawn, _swap_bounds(k, d))
        parts = [_split_part(c, ell, k) for c in range(1, k + 1)]
        # block (p_1, ..., p_d) has the code p_1 + p_2 ell + ... + p_d ell^(d-1),
        # one code per block in 0 .. ell^d - 1; axis j's list holds its term
        codes = [[p * ell**j for p in parts] for j in range(1, d)]
        decide = _allones_decider(all_ones((ell,) * d), (k,) * d, k)
    for swaps in draws:
        block_codes = parts
        for col in _permutation_columns(k, d, swaps, [c[:] for c in codes]):
            block_codes = map(operator.add, block_codes, col)
        if len(set(block_codes)) == blocks:
            continue
        misses += 1
        ones = set(zip(range(1, k + 1), *_permutation_columns(k, d, swaps)))
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
