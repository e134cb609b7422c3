"""Exact deciders for two containment orders on 0-1 tensors.

Ordinary containment: A contains P when strictly increasing per-axis index
maps carry every 1 of P onto a 1 of A.

Interval-minor containment: B is an interval minor of A when contracting
consecutive cross sections of A can produce a matrix containing B, that is
when per-axis systems of disjoint increasing intervals (a grid witness)
leave a 1 of A in every block that a 1 of B selects.  One cut sweep decides
this for every B: fix the interval ends of the leading axes, give each 1 of
A the bit of its block, and close the parts of the last axis greedily, each
at the first coordinate where its hits cover what B's cross-section needs.
An all-ones B first tries the paper's equal split of every axis, a witness
when each of its blocks holds a 1; when it misses, the sweep's step bound
picks the pure sweep or a numpy form of it, counting numpy's import as
steps while numpy is not loaded.  Certificates are lex-least witnesses,
found by self-reduction: the leading axes' ends are fixed one at a time,
each at the least value the sweep still completes, and the last axis's
ends are the closes of the final sweep.

Both deciders are exact and deterministic.  `find_embedding` and
`contains_interval_minor` take an optional node budget that turns a runaway
search into an explicit undecided error instead of a wrong answer.  A node
is one host 1 tried by the embedding search inside its window: at each
step the search tries only the host ones whose first coordinate lies in
the range of coordinates that the next 1 of the pattern may map to, given
the ones mapped before it.  Which 1s are mapped before it depends on the
pattern alone, so a plan made once per pattern and host extents names,
per axis, the mapped 1 that shares its coordinate or else the mapped
coordinates nearest below and above, whose images bound the window as
tightly as all the mapped ones do.  For `contains_interval_minor` a node
is one sweep: on an n x ... x n host with o ones and a k x ... x k target,
a sweep takes on the order of C(n-1, k-1)^(d-1) * (o + n) steps, and a
witness at most 1 + (d-1) * n sweeps, the first of them the decision,
whichever back end makes it.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import time
from bisect import bisect_left
from operator import le, mul
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .errors import BudgetExceededError, RangeError, StructureError
from .tensor import Coord, TensorMatrix, _check_same_d


class GridWitness:
    """Interval-minor certificate: one ordered list of disjoint increasing
    1-based inclusive intervals per axis.

    Interval j on axis l selects the l-th block slab; the witness asserts
    that every block required by a 1 of the target pattern meets a 1 of the
    host.  Validity against a concrete (host, pattern) pair is checked by
    `verify_witness`, not the constructor.
    """

    __slots__ = ("_axes",)

    def __init__(self, axes: Iterable[Iterable[Sequence[int]]]):
        cleaned = []
        for ax_no, intervals in enumerate(axes, start=1):
            prev_end = 0
            row = []
            for iv in intervals:
                if len(iv) != 2:
                    raise StructureError(
                        f"axis {ax_no}: interval {tuple(iv)} is not a pair"
                    )
                a, b = int(iv[0]), int(iv[1])
                if a < 1 or b < a:
                    raise StructureError(f"axis {ax_no}: bad interval [{a},{b}]")
                if a <= prev_end:
                    raise StructureError(
                        f"axis {ax_no}: interval [{a},{b}] overlaps or precedes "
                        f"the one ending at {prev_end}"
                    )
                row.append((a, b))
                prev_end = b
            if not row:
                raise StructureError(f"axis {ax_no}: empty interval list")
            cleaned.append(tuple(row))
        if not cleaned:
            raise StructureError("witness needs at least one axis")
        self._axes = tuple(cleaned)

    @property
    def axes(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return self._axes

    @property
    def d(self) -> int:
        return len(self._axes)

    def check_against(self, A: TensorMatrix, B: TensorMatrix) -> None:
        """Structural validity for this host/pattern pair; raises StructureError."""
        _check_same_d(A, B)
        if self.d != A.d:
            raise StructureError(
                f"witness has {self.d} axes, tensors have {A.d}"
            )
        for ax, (intervals, k, n) in enumerate(
            zip(self._axes, B.dims, A.dims), start=1
        ):
            if len(intervals) != k:
                raise StructureError(
                    f"axis {ax}: {len(intervals)} intervals, pattern extent is {k}"
                )
            if intervals[-1][1] > n:
                raise StructureError(
                    f"axis {ax}: interval end {intervals[-1][1]} exceeds extent {n}"
                )

    def block(self, coord: Coord) -> tuple[Coord, Coord]:
        """(lo, hi) corners of the host block selected by a pattern coordinate."""
        lo = []
        hi = []
        for ax, j in enumerate(coord):
            if not 1 <= j <= len(self._axes[ax]):
                raise RangeError(f"no interval {j} on axis {ax + 1}")
            a, b = self._axes[ax][j - 1]
            lo.append(a)
            hi.append(b)
        return tuple(lo), tuple(hi)

    def locate(self, coord: Coord) -> Coord | None:
        """Block coordinate a host cell falls in, or None if any axis misses."""
        out = []
        for ax, c in enumerate(coord):
            hit = None
            for j, (a, b) in enumerate(self._axes[ax], start=1):
                if a <= c <= b:
                    hit = j
                    break
            if hit is None:
                return None
            out.append(hit)
        return tuple(out)

    def to_json(self) -> dict:
        return {"axes": [[[a, b] for a, b in ivs] for ivs in self._axes]}

    @classmethod
    def from_json(cls, data: dict) -> "GridWitness":
        if not isinstance(data, dict) or "axes" not in data:
            raise StructureError("witness JSON needs an 'axes' key")
        axes = data["axes"]
        # int() in the constructor would truncate floats and read booleans
        # and digit strings
        if not isinstance(axes, list) or not all(
            isinstance(row, list)
            and all(isinstance(iv, list) and set(map(type, iv)) <= {int} for iv in row)
            for row in axes
        ):
            raise StructureError("witness axes must be lists of [int, int] intervals")
        return cls(axes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridWitness):
            return NotImplemented
        return self._axes == other._axes

    def __hash__(self) -> int:
        return hash(self._axes)

    def __repr__(self) -> str:
        return f"GridWitness({list(map(list, self._axes))})"


def extend_to_partition(W: GridWitness, dims: Sequence[int]) -> GridWitness:
    """Stretch witness intervals into a full partition of each axis.

    Each gap joins the interval before it; indices before the first interval
    join the first.  The block every host cell belongs to is then total.
    """
    axes = []
    for intervals, n in zip(W.axes, dims):
        if intervals[-1][1] > n:
            raise StructureError(
                f"witness interval {intervals[-1]} exceeds axis extent {n}"
            )
        ext = []
        for j, (a, b) in enumerate(intervals):
            lo = 1 if j == 0 else ext[-1][1] + 1
            hi = n if j == len(intervals) - 1 else intervals[j + 1][0] - 1
            ext.append((lo, hi))
        axes.append(ext)
    return GridWitness(axes)


def verify_witness(A: TensorMatrix, B: TensorMatrix, W: GridWitness) -> bool:
    """Certificate check, no search: every block a 1 of B selects must
    contain a 1 of A.  Structurally invalid witnesses raise, they are not
    merely 'false'."""
    W.check_against(A, B)
    for coord in B.ones:
        lo, hi = W.block(coord)
        if not A.any_in_box(lo, hi):
            return False
    return True


# ---------------------------------------------------------------------------
# ordinary containment
# ---------------------------------------------------------------------------


class _Budget:
    """Node and time limits of one search, None for no limit: `spend`, called
    once per node, raises BudgetExceededError on the node past `nodes` or
    once `seconds` have passed.  Without limits it is a single check."""

    __slots__ = ("left", "deadline")

    def __init__(self, nodes: int | None = None, seconds: float | None = None):
        self.left = math.inf if nodes is None and seconds is not None else nodes
        self.deadline = math.inf if seconds is None else time.perf_counter() + seconds

    def spend(self) -> None:
        if self.left is None:
            return
        self.left -= 1
        if self.left < 0 or time.perf_counter() > self.deadline:
            limit = "node" if self.left < 0 else "time"
            raise BudgetExceededError(
                f"{limit} budget exhausted before the search finished; undecided"
            )


def find_embedding(
    A: TensorMatrix, P: TensorMatrix, node_budget: int | None = None
) -> list[tuple[Coord, Coord]] | None:
    """First embedding of P into A in lexicographic search order, as
    (pattern one, host one) pairs; None when A avoids P.

    An embedding assigns host coordinates to pattern coordinates so that some
    strictly increasing extension to whole axes exists.  That holds exactly
    when, per axis: equal pattern coordinates get equal host coordinates,
    host gaps are at least the pattern gaps, and both ends leave room
    (p <= v <= n - (k - p)).
    """
    _check_same_d(A, P)
    return _embedding(A.ones_sorted(), _embedding_plan(P, A.dims), node_budget)


def _embedding_plan(
    P: TensorMatrix, dims: tuple[int, ...], through_last: bool = False
) -> tuple | None:
    """The plan `_embedding` follows to search hosts of extents `dims` for
    P, the lex-greatest 1 of P mapped first with through_last; None when P
    does not fit in `dims`.  A search makes it once: `find_embedding` per
    call, branch and bound's f checker once for all its calls.

    The search maps the 1s of P in lex order, so which of them are mapped
    when one comes up depends on P alone.  The plan is (the lex-sorted ones
    of P, one step per 1 searched, the least and the greatest coordinates
    of the pinned 1's image).  A step gives, per axis, the least and
    greatest host coordinate its 1 may map to, each as a (source, offset)
    pair meaning the source's image on that axis plus the offset.  If a
    mapped 1 shares the coordinate, both bounds are its image.  Otherwise
    they come from the mapped coordinates nearest below and above plus the
    distance to them; source len(ones), an all-zero image, gives a bound
    that no mapped 1 does: the coordinate itself below, and the coordinate
    plus the room the extents leave above.  In a valid partial map the
    slack (image minus coordinate) never decreases along an axis, so the
    nearest mapped coordinates give the window that all of them would.  A
    step is ((axis, bounds) for axis 1, (axis, bounds) per later axis).
    """
    if not all(map(le, P.dims, dims)):
        return None
    pat = P.ones_sorted()
    zero = len(pat)
    searched = zero - 1 if through_last and pat else zero
    # per axis, the bounds of each searched 1 in turn; held[c] is the
    # mapped 1 that holds coordinate c, the ends 0 and k + 1 standing in
    # for nothing mapped below or above
    axes = []
    for ax, k in enumerate(P.dims):
        held = [None] * (k + 2)
        held[0] = held[-1] = zero
        if searched < zero:
            held[pat[-1][ax]] = searched
        room = dims[ax] - k
        bounds = []  # (axis, source, offset, source, offset) per searched 1
        for i in range(searched):
            p = pat[i][ax]
            j = held[p]
            if j is not None:
                bounds.append((ax, j, 0, j, 0))
                continue
            lo = p - 1
            while held[lo] is None:
                lo -= 1
            hi = p + 1
            while held[hi] is None:
                hi += 1
            if hi > k:
                bounds.append((ax, held[lo], p - lo, zero, p + room))
            else:
                bounds.append((ax, held[lo], p - lo, held[hi], p - hi))
            held[p] = i
        axes.append(bounds)
    later = zip(*axes[1:]) if len(axes) > 1 else itertools.repeat(())
    steps = tuple(zip(axes[0], later))
    pin = None
    if searched < zero:
        pin = (pat[-1], tuple(p + n - k for p, n, k in zip(pat[-1], dims, P.dims)))
    return pat, steps, pin


def _embedding(
    host: list[Coord], plan: tuple | None, node_budget: int | None = None,
    through: Coord | None = None,
) -> list[tuple[Coord, Coord]] | None:
    """`find_embedding` on the lex-sorted ones `host` of a matrix, following
    `plan`, the `_embedding_plan` of the pattern for the matrix's extents.

    Strictly increasing axis maps keep lex order, so the image of each 1 of
    P comes after the image of the 1 before it.  At each step the search
    reads, per axis, the window of host coordinates the next 1 of P may map
    to off the plan and the images so far, and tries, in order, the host
    ones past the previous image whose first coordinate lies in axis 1's
    window (a bisected slice of `host`), testing the other axes against
    theirs.  A host 1 that passes is the image, and the next 1 of P comes
    up; a spent window drops the last image and goes on just past it.  With
    a plan made through_last, `through` is a host 1 lex-greater than every
    one of `host`, and only embeddings using it are searched: it can only be
    the image of the lex-greatest 1 of P, and that pair is pinned before the
    search runs over `host`.
    """
    if plan is None:
        return None
    pat, steps, pin = plan
    if not pat:
        return []
    if len(host) < len(steps):  # each pattern 1 needs its own host 1
        return None
    img = [None] * len(pat) + [(0,) * len(pat[0])]  # by 1 of P, then the zero image
    if pin is not None:
        # nothing else is mapped yet, so only the ends bound the pair
        if not (all(map(le, pin[0], through)) and all(map(le, through, pin[1]))):
            return None
        img[len(pat) - 1] = through  # the lex-greatest 1 of P
    spend = _Budget(node_budget).spend
    end = len(host)
    at: list[int] = []  # the host index of each image so far
    resume = 0  # where the current window goes on; 0 starts it afresh
    while len(at) < len(steps):
        i = len(at)
        (_, lo, lo_off, hi, hi_off), rest = steps[i]
        start = at[-1] + 1 if at else 0
        stop = bisect_left(host, (img[hi][0] + hi_off + 1,), start, end)
        first = resume or bisect_left(host, (img[lo][0] + lo_off,), start, stop)
        for j in range(first, stop):
            spend()
            hc = host[j]
            for ax, a, a_off, b, b_off in rest:
                if not img[a][ax] + a_off <= hc[ax] <= img[b][ax] + b_off:
                    break
            else:
                img[i] = hc
                at.append(j)
                resume = 0
                break
        else:  # the window is spent: go on past the last image
            if not at:
                return None
            resume = at.pop() + 1
    return list(zip(pat, img))


def contains_pattern(A: TensorMatrix, P: TensorMatrix) -> bool:
    """Ordinary containment decision.  A pattern with no ones is contained
    exactly when its extents fit (the empty embedding extends)."""
    return find_embedding(A, P) is not None


# ---------------------------------------------------------------------------
# interval-minor containment
# ---------------------------------------------------------------------------


# the all-ones decider builds block labels in chunks of at most this many bytes
_LABEL_BYTES = 1 << 23
# `_allones_decider` picks the pure sweep when its step bound is at most this
_SWEEP_STEPS = 500
# and, while numpy is not loaded, up to this many steps more: the import
# costs about what the sweep does in that many.  Measured in fresh processes
# (2 cores, Python 3.11, numpy 2.4) on identity permutations that miss:
# import plus numpy sweep 107-121 ms, pure sweep 130-205 ns a step, so the
# pure sweep wins up to 0.55-0.9 million steps (J2 at k = 500, 499,000
# steps: 76 against 116 ms; at k = 700, 978,600 steps: 145 against 121 ms)
_NUMPY_IMPORT_STEPS = 600_000


def _allones_minor(
    ones: Collection[Coord], ks: tuple[int, ...], dims: tuple[int, ...]
) -> bool:
    """Does the matrix of extents `dims` with the distinct ones `ones`
    contain the all-ones pattern of extents `ks` as an interval minor?

    Witness intervals of an all-ones target widen into axis partitions.
    Each tuple of cuts on axes 1..d-1, placed between distinct coordinates
    of ones, labels every one with the bit of its (d-1)-block.  One sweep in
    last-axis order closes a part, per cut tuple, once it has hit every
    block, but never between ones sharing a last coordinate.  Blocks hit
    only grow with the interval, so this greedy is exact.
    """
    m = len(ones)
    if m < math.prod(ks):
        return False
    import numpy as np

    ones = sorted(ones, key=lambda c: c[-1])
    X = np.array(ones, np.min_scalar_type(max(dims)))

    def cut_rows(ax: int, count: int) -> np.ndarray:
        # the next `count` rows of ks[ax] - 1 increasing cut values on axis ax
        flat = itertools.chain.from_iterable(itertools.islice(combos[ax], count))
        return np.fromiter(flat, X.dtype, count * (ks[ax] - 1)).reshape(count, ks[ax] - 1)

    combos, counts = [], []  # per leading axis
    for ax, k in enumerate(ks[:-1]):
        # a cut after value v puts the ones with coordinate <= v before it
        vals = sorted({c[ax] for c in ones})[:-1]
        combos.append(itertools.combinations(vals, k - 1))
        counts.append(math.comb(len(vals), k - 1))
    # index of the first one of every last coordinate
    starts = [i for i in range(m) if i == 0 or ones[i - 1][-1] != ones[i][-1]]
    if len(starts) < ks[-1] or 0 in counts:  # an axis has too few coordinates
        return False
    if not counts:  # d = 1: one part per coordinate holding a one
        return True
    # the other axes' rows are made once, the first axis's as chunks reach them
    rest = [cut_rows(ax, counts[ax]) for ax in range(1, len(counts))]
    full = (1 << math.prod(ks[:-1])) - 1
    word = np.min_scalar_type(full)  # object beyond 64 blocks
    per_first = math.prod(counts[1:])  # cut tuples per row of the first axis
    total = counts[0] * per_first
    chunk = max(1, _LABEL_BYTES // (m * word.itemsize))
    # every chunk labels in these two buffers, the labels and the comparison
    # of one cut, so no array of a finished chunk is alive beside them
    labels = np.zeros((m, min(chunk, total)), dtype=word)
    compared = np.empty(labels.shape, dtype=bool)
    window, lo = cut_rows(0, 0), 0  # the first-axis rows from row lo on
    for first in range(0, total, chunk):
        tuple_no = np.arange(first, min(total, first + chunk))
        # keep the first-axis rows this chunk touches and make the new ones
        start, stop = first // per_first, (first + len(tuple_no) - 1) // per_first + 1
        window = np.concatenate((window[start - lo :], cut_rows(0, stop - lo - len(window))))
        lo = start
        # label[i, t]: block of one i under cut tuple t, then its bit
        label, below = labels[:, : len(tuple_no)], compared[:, : len(tuple_no)]
        label.fill(0)
        for ax in reversed(range(len(counts))):
            tuple_no, row = np.divmod(tuple_no, counts[ax])
            rows = rest[ax - 1][row] if ax else window[row - lo]
            label *= word.type(ks[ax])
            for cut in rows.T:
                label += np.less(cut, X[:, ax, None], out=below)
        np.left_shift(word.type(1), label, out=label)
        if len(starts) < m:
            label = np.bitwise_or.reduceat(label, starts, axis=0)
        hit = np.zeros_like(label[0])
        parts_left = np.full(len(hit), ks[-1])
        for bits in label:
            hit |= bits
            done = hit == full
            if np.count_nonzero(done):
                parts_left -= done
                if np.count_nonzero(parts_left) < len(parts_left):
                    return True
                hit[done] = 0
    return False


def _allones_decider(
    B: TensorMatrix, dims: tuple[int, ...], ones_count: int
) -> Callable[[Collection[Coord]], bool]:
    """Whether a host of extents `dims` with `ones_count` ones has the
    all-ones B as an interval minor, as a function of its ones.  This is the
    one place that picks an exact back end: the pure cut sweep where its
    step bound, the leading cut tuples times (ones + last extent), is at
    most `_SWEEP_STEPS`, or at most that plus `_NUMPY_IMPORT_STEPS` while
    numpy is not loaded; `_allones_minor` otherwise.

    Measured per permutation host whose equal split misses (2 cores, Python
    3.11, numpy 2.4; random ones, but block-antidiagonal ones at even k from
    14 up, where random ones rarely miss), pure against numpy sweep: 14-30
    against 31-83 us for J2 in d = 2 at k = 4..18, bounds 24-612; 121-246
    against 54-76 us for J3 in d = 2 at k = 9..16 and for J2 in d = 3 at
    k = 8..16, bounds 504-7,200.  So the bound alone does not order these
    points, and `_SWEEP_STEPS` is the largest that keeps every measured
    loss on numpy.
    """
    ks = B.dims
    tuples = math.prod(math.comb(n - 1, k - 1) for k, n in zip(ks[:-1], dims))
    pure = _SWEEP_STEPS + ("numpy" not in sys.modules) * _NUMPY_IMPORT_STEPS
    if tuples * (ones_count + dims[-1]) > pure:
        return lambda ones: _allones_minor(ones, ks, dims)
    need = _need_masks(B)
    return lambda ones: _sweep(ones, B, dims, need=need) is not None


# a leading axis keeps the factor tables of its tuples of ends for later
# sweeps of the same extents when its tuples times (extent + 1) are at most
# this many; a larger one makes each table as the sweep reaches it
_KEPT_FACTORS = 4096


@functools.lru_cache(maxsize=64)
def _strides(ks: tuple[int, ...]) -> tuple[int, ...]:
    """Block offset of one step along each leading axis of a target of
    extents `ks`, blocks being numbered in lex order."""
    return tuple(math.prod(ks[ax + 1 : -1]) for ax in range(len(ks) - 1))


def _factor_tables(
    n: int, k: int, stride: int, got: tuple[int, ...]
) -> Iterator[tuple[int, ...]]:
    """The factor table of each tuple of k interval ends that extends `got`
    on an axis of extent n, in lex order of the ends: by coordinate 0..n,
    2**(j * stride) in interval j and 0 at 0 and beyond the last end, which
    is n unless `got` fixes it."""
    if len(got) == k:
        rows: Iterable[tuple[int, ...]] = [got]
    else:
        free = range(got[-1] + 1 if got else 1, n)
        rows = (got + mid + (n,) for mid in itertools.combinations(free, k - len(got) - 1))
    for ends in rows:
        factor = [0]
        for j, (lo, hi) in enumerate(zip((0,) + ends, ends)):
            factor += [1 << j * stride] * (hi - lo)
        yield tuple(factor + [0] * (n - ends[-1]))


@functools.lru_cache(maxsize=64)
def _kept_factor_tables(
    n: int, k: int, stride: int, got: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """`_factor_tables`, kept: branch and bound's m checker sweeps with the
    extents of every node, and `records verify` with the few shapes of its
    records."""
    return tuple(_factor_tables(n, k, stride, got))


def _need_masks(B: TensorMatrix) -> tuple[int, ...]:
    """Per part j of B's last axis, the bits of the (d-1)-blocks that B's
    cross-section j has a 1 in."""
    strides = _strides(B.dims)
    origin = sum(strides)  # the block number of (1, ..., 1)
    need = [0] * B.dims[-1]
    for one in B.ones:
        need[one[-1] - 1] |= 1 << sum(map(mul, one, strides)) - origin
    return tuple(need)


def _chart(table: tuple[int, ...], col: tuple[int, ...]) -> list[int]:
    """The factor of each 1 on one axis, by its coordinate `col`; its bit is
    the product over the leading axes."""
    return list(map(table.__getitem__, col))


def _sweep(
    ones: Collection[Coord], B: TensorMatrix, dims: tuple[int, ...],
    fixed: Sequence[int] = (), need: Sequence[int] | None = None,
) -> list[int] | None:
    """Last-axis ends of a grid witness that B is an interval minor of the
    matrix of extents `dims` with the distinct ones `ones`, or None.

    Each interval starts right after the one before it, so ends name a
    witness.  The leading axes take, in lex order, every tuple of ends that
    extends `fixed`, a prefix of their ends in flattened order; an axis's
    last end is n unless fixed, and a fixed one drops the ones beyond it.
    Under a tuple each 1 hits the bit of its (d-1)-block, and part j of the
    last axis needs the bits of B's cross-section j.  The sweep closes each
    part at the first coordinate where the hits of the part so far cover
    its need, so a part that needs nothing closes where it begins.  Hits
    only grow with the interval, so these closes are the least last-axis
    ends of any witness with the tuple's ends.  Returns the closes of the
    first tuple that completes.  What depends only on the extents, the
    strides and the factor tables of small axes, is cached; a caller that
    sweeps many times with one B passes its `_need_masks` as `need`, and a
    call charts its ones and closes the parts.
    """
    ks = B.dims
    if not all(map(le, ks, dims)):
        return None
    if need is None:
        need = _need_masks(B)
    strides = _strides(ks)
    cols = list(zip(*ones)) or [()] * len(dims)
    charts = []  # per leading axis; the first one's are made one at a time
    for ax, k in enumerate(ks[:-1]):
        got, fixed = tuple(fixed[:k]), fixed[k:]
        n = dims[ax]
        kept = math.comb(n - 1, k - 1) * (n + 1) <= _KEPT_FACTORS
        tables = (_kept_factor_tables if kept else _factor_tables)(n, k, strides[ax], got)
        made = map(_chart, tables, itertools.repeat(cols[ax]))
        charts.append(list(made) if ax else made)
    last = cols[-1]
    for first in charts.pop(0) if charts else [[1] * len(last)]:
        for rest in itertools.product(*charts):
            bits = first
            for more in rest:
                bits = map(mul, bits, more)
            hits = [0] * (dims[-1] + 1)  # by last coordinate
            for c, bit in zip(last, bits):
                hits[c] |= bit
            closes: list[int] = []
            coords = iter(range(1, dims[-1] + 1))  # each part takes up where the last closed
            for want in need:
                hit = 0
                for end in coords:
                    hit |= hits[end]
                    if hit & want == want:
                        closes.append(end)
                        break
                else:
                    break
            else:
                return closes
    return None


def _split_part(c: int, k: int, n: int) -> int:
    """The part of coordinate c under the paper's equal split of an axis of
    extent n into k parts, numbered from 0."""
    return (c - 1) * k // n


def _equal_split_hits(
    ones: Iterable[Coord], ks: tuple[int, ...], dims: tuple[int, ...]
) -> bool:
    """Whether the paper's equal split of a matrix of extents `dims` into
    parts `ks` has a 1 from `ones` in every block.

    When every block is hit the split is a witness that the all-ones pattern
    of extents `ks` is an interval minor; with k > n some part is empty, so
    the split never claims a false True.  `ones` is read only until every
    block is hit.
    """
    want = math.prod(ks)
    blocks = set()
    for one in ones:
        blocks.add(tuple(map(_split_part, one, ks, dims)))
        if len(blocks) == want:
            return True
    return False


def has_interval_minor(A: TensorMatrix, B: TensorMatrix) -> bool:
    """Interval-minor decision without certificate construction.

    An all-ones target first tries the equal split of every axis, one pass
    over the ones of A that answers True when it hits every block; when it
    misses, `_allones_decider` picks the pure cut sweep or the numpy sweep,
    whose cut tuples lie between coordinates of ones only.  Any other
    target goes to the cut sweep.
    """
    _check_same_d(A, B)
    if B.ones_count == B.cell_count:
        if _equal_split_hits(A.ones, B.dims, A.dims):
            return True
        return _allones_decider(B, A.dims, A.ones_count)(A.ones)
    return _sweep(A.ones, B, A.dims) is not None


def contains_interval_minor(
    A: TensorMatrix, B: TensorMatrix, node_budget: int | None = None
) -> GridWitness | None:
    """Lex-least grid witness that B is an interval minor of A, or None.

    The returned witness is lexicographically least among all valid
    witnesses, comparing the interval endpoints read axis by axis (a1, b1,
    a2, b2, ... of axis 1, then axis 2, ...).  Stretching each interval left
    to the end of the one before keeps the witness valid and never raises
    that tuple, so the least witness has a1 = 1 and a_{j+1} = b_j + 1, and
    its ends alone name it.  `has_interval_minor` decides; then the leading
    axes' ends are fixed one at a time, in flattened order, each at the
    least value whose prefix the sweep still completes, and the last axis's
    ends are the closes of the final sweep, one with no prefix for a
    one-axis B.  node_budget counts the decision as one node, whichever
    back end makes it, and each sweep after it as one more.
    """
    _check_same_d(A, B)
    budget = _Budget(node_budget)
    budget.spend()
    if not has_interval_minor(A, B):
        return None
    need = _need_masks(B)

    def sweep(fixed: list[int]) -> list[int] | None:
        budget.spend()
        return _sweep(A.ones, B, A.dims, fixed, need)

    # a one-axis B has no leading ends to fix: one sweep's closes are its ends
    closes = sweep([]) if len(B.dims) == 1 else None
    fixed: list[int] = []
    for k in B.dims[:-1]:
        end = 0
        for _ in range(k):
            # a completion extends the prefix, so some end up to its own works
            end += 1
            while (got := sweep(fixed + [end])) is None:
                end += 1
            fixed.append(end)
            closes = got
    ends = iter(fixed + closes)
    rows = [[next(ends) for _ in range(k)] for k in B.dims]
    return GridWitness([(a + 1, b) for a, b in zip([0] + row, row)] for row in rows)
