"""Literal-definition oracles used across the test suite.

Everything here trades speed for being an independent, direct transcription
of the definitions: full enumeration of index maps, interval systems, and
whole matrix families.  Package internals are never reused; the contraction
oracle calls only the public `contains_pattern` and `contract`.
"""

import itertools
import json
from collections import deque
from fractions import Fraction
from pathlib import Path

import numpy as np

from patternforge.containment import contains_pattern, has_interval_minor
from patternforge.errors import PreconditionError, RangeError, StructureError
from patternforge.extremal import load_records
from patternforge.tensor import TensorMatrix, all_ones, contract

# contains_via_contraction_oracle refuses hosts above this many cells
ORACLE_CELL_LIMIT = 512


def dense(A: TensorMatrix) -> np.ndarray:
    arr = np.zeros(A.dims, dtype=np.int8)
    for c in A.ones:
        arr[tuple(i - 1 for i in c)] = 1
    return arr


def from_dense(arr: np.ndarray) -> TensorMatrix:
    ones = [tuple(int(i) + 1 for i in idx) for idx in zip(*np.nonzero(arr))]
    return TensorMatrix(arr.shape, ones)


def tensor_checks_oracle(dims, ones):
    """TensorMatrix's constructor checks as one Python loop per coordinate:
    (dims, frozenset of ones) for valid input, else the exception, with its
    message, that the constructor raises for an input with one fault."""
    dims = tuple(int(n) for n in dims)
    if len(dims) < 1:
        raise StructureError("a tensor needs at least one axis")
    if any(n < 1 for n in dims):
        raise StructureError(f"extents must be positive, got {dims}")
    seen = set()
    for coord in ones:
        coord = tuple(int(c) for c in coord)
        if len(coord) != len(dims):
            raise StructureError(
                f"coordinate {coord} has {len(coord)} components, expected {len(dims)}"
            )
        for c, n in zip(coord, dims):
            if not 1 <= c <= n:
                raise RangeError(f"coordinate {coord} outside extents {dims}")
        if coord in seen:
            raise StructureError(f"duplicate coordinate {coord}")
        seen.add(coord)
    return dims, frozenset(seen)


def all_tensors(dims):
    """Every 0-1 matrix of the given extents; 2^(cells) of them."""
    cells = list(itertools.product(*(range(1, n + 1) for n in dims)))
    for bits in range(1 << len(cells)):
        yield TensorMatrix(dims, [c for i, c in enumerate(cells) if bits >> i & 1])


def contains_oracle(A: TensorMatrix, P: TensorMatrix) -> bool:
    """Ordinary containment by brute force: enumerate every strictly
    increasing index map per axis (combinations), test every 1 of P."""
    assert A.d == P.d
    if any(k > n for k, n in zip(P.dims, A.dims)):
        return False
    axis_maps = [
        list(itertools.combinations(range(1, n + 1), k))
        for k, n in zip(P.dims, A.dims)
    ]
    pat = list(P.ones)
    for maps in itertools.product(*axis_maps):
        # maps[ax][p-1] is the image of pattern coordinate p on axis ax
        if all(
            A.has_one(tuple(maps[ax][c[ax] - 1] for ax in range(A.d))) for c in pat
        ):
            return True
    return False


def first_embedding_oracle(A: TensorMatrix, P: TensorMatrix, through_last: bool = False):
    """First |P|-tuple of host ones, in `itertools.product` order over the
    lex-sorted ones of A, that some strictly increasing index map per axis
    carries the lex-sorted ones of P onto, as (pattern one, host one) pairs;
    None when A avoids P.  With through_last, only tuples that use the
    lex-greatest 1 of A count.

    Product order over a lex-sorted list is lex order of the tuples, so the
    first valid tuple is the least image tuple over every per-axis map.
    """
    assert A.d == P.d
    if any(k > n for k, n in zip(P.dims, A.dims)):
        return None
    pat = sorted(P.ones)
    axis_maps = [
        list(itertools.combinations(range(1, n + 1), k))
        for k, n in zip(P.dims, A.dims)
    ]
    images = (
        tuple(tuple(maps[ax][c[ax] - 1] for ax in range(A.d)) for c in pat)
        for maps in itertools.product(*axis_maps)
    )
    if through_last and pat:
        last = max(A.ones, default=None)
        images = (img for img in images if last in img)
    first = min((img for img in images if all(map(A.has_one, img))), default=None)
    return None if first is None else list(zip(pat, first))


def interval_systems(n: int, k: int):
    """All ordered systems of k disjoint nonempty increasing intervals
    within 1..n, as tuples of (a, b) pairs."""

    def rec(start, left):
        if left == 0:
            yield ()
            return
        for a in range(start, n - left + 2):
            for b in range(a, n - left + 2):
                for rest in rec(b + 1, left - 1):
                    yield ((a, b),) + rest

    yield from rec(1, k)


def minor_witness_axes(A: TensorMatrix, B: TensorMatrix):
    """Every valid grid witness for B inside A, as per-axis interval tuples."""
    assert A.d == B.d
    if any(k > n for k, n in zip(B.dims, A.dims)):
        return
    per_axis = [list(interval_systems(n, k)) for k, n in zip(B.dims, A.dims)]
    bones = list(B.ones)
    for axes in itertools.product(*per_axis):
        ok = True
        for bc in bones:
            lo = tuple(axes[ax][bc[ax] - 1][0] for ax in range(A.d))
            hi = tuple(axes[ax][bc[ax] - 1][1] for ax in range(A.d))
            if not any(
                all(l <= c <= h for c, l, h in zip(one, lo, hi)) for one in A.ones
            ):
                ok = False
                break
        if ok:
            yield axes


def minor_oracle(A: TensorMatrix, B: TensorMatrix) -> bool:
    for _ in minor_witness_axes(A, B):
        return True
    return False


def lex_least_witness_oracle(A: TensorMatrix, B: TensorMatrix):
    """Flattened-lex minimum over all valid witnesses, or None."""

    def flat(axes):
        return tuple(x for ivs in axes for ab in ivs for x in ab)

    best = None
    for axes in minor_witness_axes(A, B):
        if best is None or flat(axes) < flat(best):
            best = axes
    return best


def max_ones_oracle(dims, avoids) -> tuple[int, TensorMatrix]:
    """Naive extremal search: scan all matrices of the given extents, keep
    the best one passing the avoidance predicate."""
    best_val, best_mat = -1, None
    for M in all_tensors(dims):
        if M.ones_count > best_val and avoids(M):
            best_val, best_mat = M.ones_count, M
    return best_val, best_mat


def cached_lookup_oracle(cache_dir, kind: str, n: int, P: TensorMatrix, fingerprint: str):
    """(exact record, best lower-bound record) for a search, by building
    every record of the cache and comparing the built keys: the last exact
    record wins, the lower-bound record of highest value (first of equals)
    is the seed."""
    exact = seed = None
    for rec in load_records(cache_dir):
        if (rec.kind, rec.n, rec.d, rec.pattern, rec.fingerprint) != (
            kind, n, P.d, P, fingerprint
        ):
            continue
        if rec.status == "exact":
            exact = rec
        elif seed is None or rec.value > seed.value:
            seed = rec
    return exact, seed


def parsed_lines_oracle(cache_dir) -> list[tuple[int, dict]]:
    """The (line number, JSON object) pairs of a record cache read one line
    at a time: a torn tail (a last line with no newline that is not JSON) is
    dropped, lines that `bytes.strip` empties are skipped, and any other
    line is decoded and parsed on its own and must hold a JSON object, else
    StructureError names it."""
    path = Path(cache_dir) / "records.jsonl"
    if not path.exists():
        return []
    data = path.read_bytes()
    start = data.rfind(b"\n") + 1
    try:
        json.loads(data[start:])
    except ValueError:
        data = data[:start]
    out = []
    for lineno, line in enumerate(data.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StructureError(f"{path}:{lineno}: {exc}") from None
        if not isinstance(obj, dict):
            raise StructureError(f"{path}:{lineno}: a record must be a JSON object")
        out.append((lineno, obj))
    return out


def contains_via_contraction_oracle(A: TensorMatrix, B: TensorMatrix) -> bool:
    """Literal definition of interval minors: breadth-first search over all
    contraction sequences, testing ordinary containment of B at every stage.

    Deliberately unoptimized; refuses hosts above ORACLE_CELL_LIMIT cells.
    """
    assert A.d == B.d
    if A.cell_count > ORACLE_CELL_LIMIT:
        raise PreconditionError(
            f"oracle limited to {ORACLE_CELL_LIMIT} cells, host has {A.cell_count}"
        )
    seen = {A}
    queue = deque([A])
    while queue:
        M = queue.popleft()
        if contains_pattern(M, B):
            return True
        for ax in range(1, M.d + 1):
            for lo in range(1, M.dims[ax - 1]):
                nxt = contract(M, ax, lo, lo + 1)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return False


def exact_avoidance(k: int, ell: int, d: int) -> tuple[Fraction, Fraction]:
    """(P(avoid), P(split miss)) of a uniformly random k x ... x k
    permutation tensor against the all-ones side-ell minor, by enumerating
    every (k!)^(d-1) tuple of permutations.  The equal split puts coordinate
    c in block (c - 1) * ell // k of its axis; a tensor that misses one of
    the ell^d blocks is decided by `has_interval_minor`, and every other
    tensor contains the minor."""
    target = all_ones((ell,) * d)
    avoid = miss = total = 0
    for cols in itertools.product(itertools.permutations(range(1, k + 1)), repeat=d - 1):
        total += 1
        ones = list(zip(range(1, k + 1), *cols))
        blocks = {tuple((c - 1) * ell // k for c in one) for one in ones}
        if len(blocks) == ell**d:
            continue
        miss += 1
        avoid += not has_interval_minor(TensorMatrix((k,) * d, ones), target)
    return Fraction(avoid, total), Fraction(miss, total)
