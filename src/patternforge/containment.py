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
when each of its blocks holds a 1, and on a large host goes to a numpy form
of the sweep.  Certificates are lex-least witnesses, found by
self-reduction: the leading axes' ends are fixed one at a time, each at the
least value the sweep still completes, and the last axis's ends are the
closes of the final sweep.

Both deciders are exact and deterministic.  `find_embedding` and
`contains_interval_minor` take an optional node budget that turns a runaway
search into an explicit undecided error instead of a wrong answer.  A node
is one host 1 tried by the embedding search, and one sweep for
`contains_interval_minor`: on an n x ... x n host with o ones and a
k x ... x k target, a sweep takes on the order of C(n-1, k-1)^(d-1) * (o + n)
steps, and a witness at most 1 + (d-1) * n sweeps.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from bisect import bisect_left
from typing import Callable, Collection, Iterable, Sequence

from .errors import BudgetExceededError, RangeError, StructureError
from .tensor import Coord, TensorMatrix, _check_same_d, all_ones


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
    return _embedding(A.ones_sorted(), A.dims, P, node_budget)


def _embedding(
    host: list[Coord], dims: tuple[int, ...], P: TensorMatrix,
    node_budget: int | None = None, through_last: bool = False,
) -> list[tuple[Coord, Coord]] | None:
    """`find_embedding` on the lex-sorted ones `host` of a matrix of extents
    `dims`.

    Strictly increasing axis maps keep lex order, so the image of each 1 of
    P comes after the image of the 1 before it: the search tries for it only
    the host ones past that image.  With through_last, only embeddings using
    host[-1] are searched: the lex-greatest host 1 can only be the image of
    the lex-greatest 1 of P, and that pair is pinned before the search runs
    over the rest.
    """
    if any(k > n for k, n in zip(P.dims, dims)):
        return None
    pat = P.ones_sorted()
    if not pat:
        return []
    if len(host) < len(pat):  # each pattern 1 needs its own host 1
        return None
    budget = _Budget(node_budget)
    d = len(dims)
    kdims = P.dims
    # per-axis partial maps pattern coordinate -> host coordinate
    maps: list[dict[int, int]] = [dict() for _ in range(d)]

    def compatible(pc: Coord, hc: Coord) -> bool:
        for ax in range(d):
            p, v = pc[ax], hc[ax]
            if not p <= v <= dims[ax] - (kdims[ax] - p):
                return False
            m = maps[ax]
            got = m.get(p)
            if got is not None:
                if got != v:
                    return False
                continue
            for q, w in m.items():
                if q < p:
                    if v - w < p - q:
                        return False
                elif w - v < q - p:
                    return False
        return True

    def assign(pc: Coord, hc: Coord) -> list[int]:
        touched = []
        for ax in range(d):
            if pc[ax] not in maps[ax]:
                maps[ax][pc[ax]] = hc[ax]
                touched.append(ax)
        return touched

    pinned = []
    if through_last:
        if not compatible(pat[-1], host[-1]):
            return None
        assign(pat[-1], host[-1])
        pinned = [(pat.pop(), host[-1])]
        host = host[:-1]
    chosen: list[Coord] = []

    def rec(i: int, start: int) -> bool:
        if i == len(pat):
            return True
        pc = pat[i]
        for j in range(start, len(host)):
            budget.spend()
            hc = host[j]
            if not compatible(pc, hc):
                continue
            touched = assign(pc, hc)
            chosen.append(hc)
            if rec(i + 1, j + 1):
                return True
            chosen.pop()
            for ax in touched:
                del maps[ax][pc[ax]]
        return False

    if rec(0, 0):
        return list(zip(pat, chosen)) + pinned
    return None


def contains_pattern(A: TensorMatrix, P: TensorMatrix) -> bool:
    """Ordinary containment decision.  A pattern with no ones is contained
    exactly when its extents fit (the empty embedding extends)."""
    return find_embedding(A, P) is not None


# ---------------------------------------------------------------------------
# interval-minor containment
# ---------------------------------------------------------------------------


# the all-ones decider builds block labels in chunks of at most this many bytes
_LABEL_BYTES = 1 << 23
# has_interval_minor hands an all-ones target to the numpy sweep above this
# many leading cut tuples times ones of the host
_SWEEP_WORK = 10_000
# `_allones_decider` picks the pure sweep when its step bound is at most this
_MISS_SWEEP_STEPS = 500


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
    window, lo = cut_rows(0, 0), 0  # the first-axis rows from row lo on
    for first in range(0, total, chunk):
        tuple_no = np.arange(first, min(total, first + chunk))
        # keep the first-axis rows this chunk touches and make the new ones
        start, stop = first // per_first, (first + len(tuple_no) - 1) // per_first + 1
        window = np.concatenate((window[start - lo :], cut_rows(0, stop - lo - len(window))))
        lo = start
        # label[i, t]: block of one i under cut tuple t, then its bit
        label = np.zeros((m, len(tuple_no)), dtype=word)
        for ax in reversed(range(len(counts))):
            tuple_no, row = np.divmod(tuple_no, counts[ax])
            rows = rest[ax - 1][row] if ax else window[row - lo]
            label *= word.type(ks[ax])
            for cut in rows.T:
                label += cut < X[:, ax, None]
        label = np.left_shift(word.type(1), label)
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
    ks: tuple[int, ...], dims: tuple[int, ...], ones_count: int
) -> Callable[[Collection[Coord]], bool]:
    """`_allones_minor` for hosts of extents `dims` with `ones_count` ones,
    or the pure cut sweep where that is faster: where the sweep's step bound,
    the leading cut tuples times (ones + last extent), is at most
    `_MISS_SWEEP_STEPS`.

    Measured per permutation host whose equal split misses (2 cores, Python
    3.11, numpy 2.4; random ones, but block-antidiagonal ones at even k from
    14 up, where random ones rarely miss), pure against numpy sweep: 14-30
    against 31-83 us for J2 in d = 2 at k = 4..18, bounds 24-612; 121-246
    against 54-76 us for J3 in d = 2 at k = 9..16 and for J2 in d = 3 at
    k = 8..16, bounds 504-7,200.  So the bound alone does not order these
    points, and the constant is the largest that keeps every measured loss
    on numpy.
    """
    tuples = math.prod(math.comb(n - 1, k - 1) for k, n in zip(ks[:-1], dims))
    if tuples * (ones_count + dims[-1]) > _MISS_SWEEP_STEPS:
        return lambda ones: _allones_minor(ones, ks, dims)
    B = all_ones(ks)
    return lambda ones: _sweep(ones, B, dims) is not None


def _sweep(
    ones: Collection[Coord], B: TensorMatrix, dims: tuple[int, ...],
    fixed: Sequence[int] = (),
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
    first tuple that completes.
    """
    ks = B.dims
    if any(k > n for k, n in zip(ks, dims)):
        return None
    strides = [math.prod(ks[ax + 1 : -1]) for ax in range(len(ks) - 1)]
    cols = list(zip(*ones)) or [()] * len(dims)

    def chart(ax: int, ends: tuple[int, ...]) -> list[int]:
        # 2**(block offset) of each 1 on axis ax, 0 beyond the last end; the
        # bit of a 1 is the product over the leading axes
        factor = [0]  # by coordinate
        for j, (lo, hi) in enumerate(zip((0,) + ends, ends)):
            factor += [1 << j * strides[ax]] * (hi - lo)
        factor += [0] * (dims[ax] - ends[-1])
        return list(map(factor.__getitem__, cols[ax]))

    charts = []  # per leading axis; the first one's are made one at a time
    for ax, k in enumerate(ks[:-1]):
        got, fixed = tuple(fixed[:k]), fixed[k:]
        free = range(got[-1] + 1 if got else 1, dims[ax])
        rows = [got] if len(got) == k else [
            got + mid + (dims[ax],) for mid in itertools.combinations(free, k - len(got) - 1)
        ]
        made = map(chart, itertools.repeat(ax), rows)
        charts.append(list(made) if ax else made)
    need = [0] * ks[-1]
    for one in B.ones:
        need[one[-1] - 1] |= 1 << sum(map(operator.mul, one, strides)) - sum(strides)
    last = cols[-1]
    for first in charts.pop(0) if charts else [[1] * len(last)]:
        for rest in itertools.product(*charts):
            bits = first
            for more in rest:
                bits = map(operator.mul, bits, more)
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


def _equal_split_hits(
    ones: Iterable[Coord], ks: tuple[int, ...], dims: tuple[int, ...]
) -> bool:
    """Whether the paper's equal split of a matrix of extents `dims` into
    parts `ks` has a 1 from `ones` in every block.

    Coordinate c of an axis of extent n goes to part floor((c-1)*k/n) of k.
    When every block is hit the split is a witness that the all-ones pattern
    of extents `ks` is an interval minor; with k > n some part is empty, so
    the split never claims a false True.  `ones` is read only until every
    block is hit.
    """
    want = math.prod(ks)
    blocks = set()
    for one in ones:
        blocks.add(tuple((c - 1) * k // n for c, k, n in zip(one, ks, dims)))
        if len(blocks) == want:
            return True
    return False


def has_interval_minor(A: TensorMatrix, B: TensorMatrix) -> bool:
    """Interval-minor decision without certificate construction.

    All-ones targets first try the equal split of every axis, one pass over
    the ones of A that answers True when it hits every block.  Then the cut
    sweep decides, for every target; on a host where the sweep's leading cut
    tuples times the ones of A exceed `_SWEEP_WORK`, an all-ones target goes
    to the numpy sweep instead, whose cut tuples lie between coordinates of
    ones only.
    """
    _check_same_d(A, B)
    if B.ones_count == B.cell_count:
        decided = _allones_shortcut(A, B)
        if decided is not None:
            return decided
    return _sweep(A.ones, B, A.dims) is not None


def _allones_shortcut(A: TensorMatrix, B: TensorMatrix) -> bool | None:
    """The answer for an all-ones B when the equal split hits (True) or the
    host is large enough for the numpy sweep, whose answer it is; None when
    the pure cut sweep must decide."""
    if _equal_split_hits(A.ones, B.dims, A.dims):
        return True
    tuples = math.prod(math.comb(n - 1, k - 1) for k, n in zip(B.dims[:-1], A.dims))
    if tuples * A.ones_count > _SWEEP_WORK:
        return _allones_minor(A.ones, B.dims, A.dims)
    return None


def contains_interval_minor(
    A: TensorMatrix, B: TensorMatrix, node_budget: int | None = None
) -> GridWitness | None:
    """Lex-least grid witness that B is an interval minor of A, or None.

    The returned witness is lexicographically least among all valid
    witnesses, comparing the interval endpoints read axis by axis (a1, b1,
    a2, b2, ... of axis 1, then axis 2, ...).  Stretching each interval left
    to the end of the one before keeps the witness valid and never raises
    that tuple, so the least witness has a1 = 1 and a_{j+1} = b_j + 1, and
    its ends alone name it.  One cut sweep decides; then the leading axes'
    ends are fixed one at a time, in flattened order, each at the least
    value whose prefix the sweep still completes, and the last axis's ends
    are the closes of the final sweep.  node_budget counts sweeps, the
    deciding one included.  An all-ones B first tries the equal split and,
    on a large host, the numpy sweep, so a large host without the minor is
    turned away before any counted sweep; on a small host whose split
    misses, the counted deciding sweep is the only one that decides.
    """
    _check_same_d(A, B)
    if B.ones_count == B.cell_count and _allones_shortcut(A, B) is False:
        return None
    budget = _Budget(node_budget)

    def sweep(fixed: list[int]) -> list[int] | None:
        budget.spend()
        return _sweep(A.ones, B, A.dims, fixed)

    closes = sweep([])
    if closes is None:
        return None
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
