"""Exact deciders for two containment orders on 0-1 tensors.

Ordinary containment: A contains P when strictly increasing per-axis index
maps carry every 1 of P onto a 1 of A.

Interval-minor containment: B is an interval minor of A when contracting
consecutive cross sections of A can produce a matrix containing B.  The
decider here works with the equivalent grid-witness form: per-axis systems of
disjoint increasing intervals such that every block selected by a 1 of B
contains a 1 of A; all-ones targets are decided from the list of ones of A
alone.  Certificates are lex-least witnesses.  Widening an interval to the
left, up to the end of the interval before it, keeps every required block
non-empty and never raises the flattened endpoint tuple, so the lex-least
witness has a_1 = 1 and a_{j+1} = b_j + 1 on every axis: the witness search
places interval ends only.

Both deciders are exact and deterministic; an optional node budget turns
runaway searches into an explicit undecided error instead of a wrong answer.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

import numpy as np

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
        return cls(data["axes"])

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
    __slots__ = ("left",)

    def __init__(self, limit: int | None):
        self.left = limit

    def spend(self) -> None:
        if self.left is None:
            return
        self.left -= 1
        if self.left < 0:
            raise BudgetExceededError(
                "node budget exhausted before the search finished; undecided"
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

    With through_last, only embeddings using host[-1] are searched.
    Strictly increasing axis maps keep lex order, so the lex-greatest host 1
    can only be the image of the lex-greatest 1 of P; that pair is pinned
    before the search runs over the rest.
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

    def rec(i: int) -> bool:
        if i == len(pat):
            return True
        pc = pat[i]
        for hc in host:
            budget.spend()
            if not compatible(pc, hc):
                continue
            touched = assign(pc, hc)
            chosen.append(hc)
            if rec(i + 1):
                return True
            chosen.pop()
            for ax in touched:
                del maps[ax][pc[ax]]
        return False

    if rec(0):
        return list(zip(pat, chosen)) + pinned
    return None


def contains_pattern(
    A: TensorMatrix, P: TensorMatrix, node_budget: int | None = None
) -> bool:
    """Ordinary containment decision.  A pattern with no ones is contained
    exactly when its extents fit (the empty embedding extends)."""
    return find_embedding(A, P, node_budget) is not None


# ---------------------------------------------------------------------------
# interval-minor containment
# ---------------------------------------------------------------------------


# the all-ones decider builds block labels in chunks of at most this many bytes
_LABEL_BYTES = 1 << 23


def _allones_minor(A: TensorMatrix, ks: tuple[int, ...]) -> bool:
    """Does A contain the all-ones pattern of extents `ks` as an interval
    minor?  Only the list of ones of A is read.

    Witness intervals of an all-ones target widen into axis partitions.
    Each tuple of cuts on axes 1..d-1, placed between distinct coordinates
    of ones, labels every one with the bit of its (d-1)-block.  One sweep in
    last-axis order closes a part, per cut tuple, once it has hit every
    block, but never between ones sharing a last coordinate.  Blocks hit
    only grow with the interval, so this greedy is exact.
    """
    m = A.ones_count
    if m < math.prod(ks):
        return False
    ones = sorted(A.ones, key=lambda c: c[-1])
    X = np.array(ones, np.min_scalar_type(max(A.dims)))
    cuts = []  # per leading axis: rows of ks[ax] - 1 increasing cut values
    for ax, k in enumerate(ks[:-1]):
        # a cut after value v puts the ones with coordinate <= v before it
        vals = sorted({c[ax] for c in ones})[:-1]
        rows = math.comb(len(vals), k - 1)
        flat = itertools.chain.from_iterable(itertools.combinations(vals, k - 1))
        cuts.append(np.fromiter(flat, X.dtype, rows * (k - 1)).reshape(rows, k - 1))
    # index of the first one of every last coordinate
    starts = [i for i in range(m) if i == 0 or ones[i - 1][-1] != ones[i][-1]]
    if len(starts) < ks[-1]:
        return False
    full = (1 << math.prod(ks[:-1])) - 1
    word = np.min_scalar_type(full)  # object beyond 64 blocks
    total = math.prod(map(len, cuts))
    chunk = max(1, _LABEL_BYTES // (m * word.itemsize))
    for first in range(0, total, chunk):
        tuple_no = np.arange(first, min(total, first + chunk))
        # label[i, t]: block of one i under cut tuple t, then its bit
        label = np.zeros((m, len(tuple_no)), dtype=word)
        for ax in reversed(range(len(cuts))):
            tuple_no, row = np.divmod(tuple_no, len(cuts[ax]))
            label *= word.type(ks[ax])
            for cut in cuts[ax][row].T:
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


def _witness_search(
    A: TensorMatrix, B: TensorMatrix, node_budget: int | None
) -> GridWitness | None:
    """Depth-first search for the flattened-lex-least grid witness.

    Only interval ends are placed: every interval starts right after the one
    before it (a_1 = 1, a_{j+1} = b_j + 1).  Stretching any valid witness
    into that form keeps its blocks non-empty and never raises its flattened
    tuple, so the lex-least witness has that form, and larger starts would
    only revisit subtrees that already failed.  Ends are placed axis by axis
    in flattened order, each ascending, so the first complete witness found
    is the lexicographic minimum; one budget node is one interval end tried.
    After each placement a relaxation is checked: every block a 1 of B
    requires, widened to the loosest range still-unplaced intervals could
    occupy, must contain a 1 of A.
    """
    ns = A.dims
    ks = B.dims
    d = A.d
    if any(k > n for k, n in zip(ks, ns)):
        return None
    bones = B.ones_sorted()
    budget = _Budget(node_budget)
    ends: list[list[int]] = [[] for _ in range(d)]

    def feasible() -> bool:
        for bc in bones:
            lo = []
            hi = []
            for ax in range(d):
                j = bc[ax]
                row = ends[ax]
                if j <= len(row):
                    a = (row[j - 2] if j > 1 else 0) + 1
                    b = row[j - 1]
                else:
                    a = (row[-1] if row else 0) + j - len(row)
                    b = ns[ax] - ks[ax] + j
                lo.append(a)
                hi.append(b)
            if not A.any_in_box(tuple(lo), tuple(hi)):
                return False
        return True

    def place(ax: int, idx: int) -> GridWitness | None:
        if ax == d:
            return GridWitness(
                [(a + 1, b) for a, b in zip([0] + row, row)] for row in ends
            )
        if idx == ks[ax]:
            return place(ax + 1, 0)
        row = ends[ax]
        for b in range((row[-1] if row else 0) + 1, ns[ax] - ks[ax] + idx + 2):
            budget.spend()
            row.append(b)
            if feasible():
                got = place(ax, idx + 1)
                if got is not None:
                    return got
            row.pop()
        return None

    if not feasible():
        return None
    return place(0, 0)


def _allones_answer(A: TensorMatrix, B: TensorMatrix) -> bool | None:
    """The sparse decision when B is all ones, None when B has a 0."""
    _check_same_d(A, B)
    if B.ones_count != B.cell_count:
        return None
    return _allones_minor(A, B.dims)


def has_interval_minor(
    A: TensorMatrix, B: TensorMatrix, node_budget: int | None = None
) -> bool:
    """Interval-minor decision without certificate construction.

    All-ones targets take the sparse decider, whose work grows with the ones
    of A and the cut tuples between them, not with the cells of A; they
    spend no node budget.  Other targets run the witness search.
    """
    answer = _allones_answer(A, B)
    if answer is not None:
        return answer
    return _witness_search(A, B, node_budget) is not None


def contains_interval_minor(
    A: TensorMatrix, B: TensorMatrix, node_budget: int | None = None
) -> GridWitness | None:
    """Lex-least grid witness that B is an interval minor of A, or None.

    The returned witness is lexicographically least among all valid
    witnesses, comparing the interval endpoints read axis by axis (a1, b1,
    a2, b2, ... of axis 1, then axis 2, ...).  Stretching each interval left
    to the end of the one before keeps the witness valid and never raises
    that tuple, so the least witness has a1 = 1 and a_{j+1} = b_j + 1 and the
    search tries interval ends only; node_budget counts the ends tried.  An
    all-ones B is first decided sparsely.
    """
    if _allones_answer(A, B) is False:
        return None
    return _witness_search(A, B, node_budget)
