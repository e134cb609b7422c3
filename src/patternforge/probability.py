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
the permutation as columns, reads the block of each 1 off them in a table
built once per estimate, and builds the ones for the exact decider only
when the split misses a block; the misses are reported as
`equal_split_misses`, the event the union bound bounds.
`probability_chain` compares floats; only `ChainReport.final_bound_exact` and
`ratio_lower_bound` are exact rationals (Fraction).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

from .construct import _permutation_columns, _swap_bounds
from .containment import _allones_minor
from .errors import PreconditionError, RangeError, StructureError

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
    ell parts), and the seed's 32-bit words.  A trial looks up the block of
    each of its ones in that table; one whose split hits every block
    contains the pattern.  Only a trial whose split misses a block, counted
    in `equal_split_misses`, builds its set of ones for the exact sweep.
    With k < ell^d there are fewer ones than blocks, so every trial avoids
    and misses, and none is drawn.  Each trial is decided exactly, so
    `undecided` is 0.
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
        seed_words = _uint32_words(seed)
    for t in range(drawn):
        entropy = np.array(seed_words + _uint32_words(t), dtype=np.uint32)
        rng = np.random.default_rng(np.random.SeedSequence(entropy))
        cols = _permutation_columns(k, d, rng, highs)
        for axis, col in enumerate(cols, start=2):
            if len(set(col)) != k:
                raise StructureError(f"axis {axis}: trial {t} drew no permutation")
        hit_blocks = set(zip(first_axis_parts, *(map(part.__getitem__, col) for col in cols)))
        if len(hit_blocks) == blocks:
            continue
        misses += 1
        ones = set(zip(range(1, k + 1), *cols))
        avoid_count += not _allones_minor(ones, (ell,) * d, (k,) * d)
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
