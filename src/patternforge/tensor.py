"""d-dimensional 0-1 matrices and their structural operations.

The one type everything else builds on is :class:`TensorMatrix`: an immutable
d-dimensional zero-one matrix with arbitrary per-axis extents, stored as its
ones, a set of 1-based coordinate tuples.  Box queries bisect the ones, sorted
lexicographically once on first use, for the slab of the box on axis 1 and
check only that slab; no query's time or memory grows with the cell count.

Coordinates are 1-based everywhere, including serialization.
"""

from __future__ import annotations

import itertools
import json
import math
from bisect import bisect_left
from operator import le
from typing import Iterable, Sequence

from .errors import RangeError, StructureError, TensorParseError

Coord = tuple[int, ...]


class TensorMatrix:
    """Immutable d-dimensional 0-1 matrix.

    dims   -- tuple of d positive extents (n_1, ..., n_d), d >= 1
    ones   -- frozenset of 1-based coordinate tuples, all within dims

    Instances are value objects: hashable, comparable, safe to share across
    threads.  All operations on them are pure functions.
    """

    __slots__ = ("_dims", "_ones", "_sorted")

    def __init__(self, dims: Iterable[int], ones: Iterable[Coord] = ()):
        dims = _checked_dims(tuple(int(n) for n in dims))
        coords = list(map(tuple, ones))
        # int() turns bools and numpy integers into plain ints, and truncates
        # floats; components that are plain ints already skip it
        if not set(map(type, itertools.chain.from_iterable(coords))) <= {int}:
            coords = [tuple(map(int, c)) for c in coords]
        self._fill(dims, coords)

    @classmethod
    def _of_ints(cls, dims: tuple[int, ...], coords: Sequence[Coord]) -> "TensorMatrix":
        """`TensorMatrix(dims, coords)` for extents and coordinates that are
        tuples of plain ints already, without converting them."""
        self = cls.__new__(cls)
        self._fill(_checked_dims(dims), coords)
        return self

    def _fill(self, dims: tuple[int, ...], coords: Sequence[Coord]) -> None:
        unique = frozenset(coords)
        # whole-list passes; the per-coordinate walk runs only to name a fault
        if coords and (
            len(unique) != len(coords)
            or set(map(len, coords)) != {len(dims)}
            or min(itertools.chain.from_iterable(coords)) < 1
            or not all(map(le, map(max, zip(*coords)), dims))
        ):
            _raise_first_fault(coords, dims)
        self._dims = dims
        self._ones = unique
        self._sorted: list[Coord] | None = None  # the ones in lex order, on first use

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims

    @property
    def ones(self) -> frozenset[Coord]:
        return self._ones

    @property
    def d(self) -> int:
        return len(self._dims)

    @property
    def ones_count(self) -> int:
        return len(self._ones)

    @property
    def is_zero(self) -> bool:
        return not self._ones

    @property
    def cell_count(self) -> int:
        return math.prod(self._dims)

    def _lex(self) -> list[Coord]:
        if self._sorted is None:
            self._sorted = sorted(self._ones)
        return self._sorted

    def ones_sorted(self) -> list[Coord]:
        """The ones in lex order, as a fresh list the caller may change."""
        return list(self._lex())

    def has_one(self, coord: Coord) -> bool:
        return tuple(coord) in self._ones

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorMatrix):
            return NotImplemented
        return self._dims == other._dims and self._ones == other._ones

    def __hash__(self) -> int:
        return hash((self._dims, self._ones))

    def __repr__(self) -> str:
        shape = "x".join(str(n) for n in self._dims)
        return f"TensorMatrix({shape}, {self.ones_count} ones)"

    # -- box queries ---------------------------------------------------

    def count_in_box(self, lo: Coord, hi: Coord) -> int:
        """Number of ones with lo_l <= i_l <= hi_l on every axis (inclusive).

        Two bisections find the lex-sorted ones with lo_1 <= i_1 <= hi_1; only
        those are checked on every axis.
        """
        ones = self._lex()
        start = bisect_left(ones, (lo[0],))
        stop = bisect_left(ones, (hi[0] + 1,), start)
        return sum(
            1 for c in ones[start:stop] if all(map(le, lo, c)) and all(map(le, c, hi))
        )

    def any_in_box(self, lo: Coord, hi: Coord) -> bool:
        return self.count_in_box(lo, hi) > 0


def _checked_dims(dims: tuple[int, ...]) -> tuple[int, ...]:
    if not dims:
        raise StructureError("a tensor needs at least one axis")
    if min(dims) < 1:
        raise StructureError(f"extents must be positive, got {dims}")
    return dims


def _raise_first_fault(coords: list[Coord], dims: tuple[int, ...]) -> None:
    """Raise for the first coordinate, in input order, that has the wrong
    length, leaves the extents or repeats an earlier one."""
    seen: set[Coord] = set()
    for coord in coords:
        if len(coord) != len(dims):
            raise StructureError(
                f"coordinate {coord} has {len(coord)} components, expected {len(dims)}"
            )
        if not all(1 <= c <= n for c, n in zip(coord, dims)):
            raise RangeError(f"coordinate {coord} outside extents {dims}")
        if coord in seen:
            raise StructureError(f"duplicate coordinate {coord}")
        seen.add(coord)


class PermutationTensor:
    """A validated k x ... x k permutation matrix.

    Every cross section of every axis must contain exactly one 1; equivalently
    the multiset of l-th coordinates over all ones is exactly {1, ..., k} for
    each axis l.
    """

    __slots__ = ("_matrix",)

    def __init__(self, matrix: TensorMatrix):
        dims = matrix.dims
        k = dims[0]
        if any(n != k for n in dims):
            raise StructureError(f"permutation matrix must be square, got {dims}")
        if matrix.ones_count != k:
            raise StructureError(
                f"permutation matrix of side {k} needs exactly {k} ones, "
                f"got {matrix.ones_count}"
            )
        # k ones, each within [1, k]: k distinct values per axis are 1..k
        for axis, col in enumerate(zip(*matrix.ones)):
            if len(set(col)) != k:
                raise StructureError(
                    f"axis {axis + 1}: some cross section does not contain exactly one 1"
                )
        self._matrix = matrix

    @property
    def matrix(self) -> TensorMatrix:
        return self._matrix

    @property
    def k(self) -> int:
        return self._matrix.dims[0]

    @property
    def d(self) -> int:
        return self._matrix.d

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PermutationTensor):
            return NotImplemented
        return self._matrix == other._matrix

    def __hash__(self) -> int:
        return hash(("perm", self._matrix))

    def __repr__(self) -> str:
        return f"PermutationTensor(k={self.k}, d={self.d})"


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------


def _check_axis(A: TensorMatrix, axis: int) -> None:
    if not 1 <= axis <= A.d:
        raise RangeError(f"axis {axis} out of range for {A.d}-dimensional tensor")


def cross_section(A: TensorMatrix, axis: int, index: int) -> TensorMatrix:
    """The (d-1)-dimensional slice of A with coordinate `axis` fixed at `index`.

    Requires d >= 2 so the result is a valid tensor.
    """
    if A.d < 2:
        raise RangeError("cross sections need a tensor of dimension >= 2")
    _check_axis(A, axis)
    if not 1 <= index <= A.dims[axis - 1]:
        raise RangeError(f"index {index} out of range on axis {axis}")
    ax = axis - 1
    new_dims = A.dims[:ax] + A.dims[ax + 1 :]
    new_ones = [c[:ax] + c[ax + 1 :] for c in A.ones if c[ax] == index]
    return TensorMatrix(new_dims, new_ones)


def contract(A: TensorMatrix, axis: int, lo: int, hi: int) -> TensorMatrix:
    """Replace the consecutive cross sections lo..hi along `axis` by their
    entrywise OR; extent along `axis` shrinks by hi - lo."""
    _check_axis(A, axis)
    n = A.dims[axis - 1]
    if not (1 <= lo <= hi <= n):
        raise RangeError(f"invalid contraction interval [{lo},{hi}] on axis of extent {n}")
    ax = axis - 1
    new_dims = list(A.dims)
    new_dims[ax] = n - (hi - lo)
    new_ones: set[Coord] = set()
    for c in A.ones:
        i = c[ax]
        if i < lo:
            new_ones.add(c)
        elif i <= hi:
            new_ones.add(c[:ax] + (lo,) + c[ax + 1 :])
        else:
            new_ones.add(c[:ax] + (i - (hi - lo),) + c[ax + 1 :])
    return TensorMatrix(new_dims, new_ones)


def _check_same_d(A: TensorMatrix, B: TensorMatrix) -> None:
    if A.d != B.d:
        raise StructureError(
            f"dimension mismatch: {A.d}-dimensional vs {B.d}-dimensional"
        )


def kronecker(M: TensorMatrix, N: TensorMatrix) -> TensorMatrix:
    """Kronecker product: every 1 of M is replaced by a copy of N, every 0 by
    an all-zero block of N's extents."""
    _check_same_d(M, N)
    dims = tuple(m * n for m, n in zip(M.dims, N.dims))
    ones = []
    for block in M.ones:
        offset = tuple((b - 1) * n for b, n in zip(block, N.dims))
        for c in N.ones:
            ones.append(tuple(o + ci for o, ci in zip(offset, c)))
    return TensorMatrix(dims, ones)


def antidiagonal(s: int, d: int) -> TensorMatrix:
    """s x ... x s matrix with ones exactly where the coordinates sum to
    s + d - 1; it has binomial(s+d-2, d-1) ones."""
    if s < 1 or d < 1:
        raise RangeError(f"need s >= 1 and d >= 1, got s={s}, d={d}")
    ones = []
    for head in itertools.product(range(1, s + 1), repeat=d - 1):
        last = s + d - 1 - sum(head)
        if 1 <= last <= s:
            ones.append(head + (last,))
    return TensorMatrix((s,) * d, ones)


def corner_ones(P: TensorMatrix) -> list[Coord]:
    """All 1-coordinates whose every component is extremal (1 or the extent)."""
    out = [
        c
        for c in P.ones
        if all(ci == 1 or ci == n for ci, n in zip(c, P.dims))
    ]
    return sorted(out)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def serialize_tensor(A: TensorMatrix) -> str:
    """Text form: 'dims: n1 ... nd' header, then one line per 1-coordinate in
    lexicographic order."""
    lines = ["dims: " + " ".join(str(n) for n in A.dims)]
    for coord in A.ones_sorted():
        lines.append(" ".join(str(c) for c in coord))
    return "\n".join(lines) + "\n"


def parse_tensor(text: str) -> TensorMatrix:
    """Parse the text tensor format.  '#' starts a comment, blank lines are
    ignored, duplicate coordinates are an error."""
    dims: tuple[int, ...] | None = None
    ones: list[Coord] = []
    seen: set[Coord] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if dims is None:
            if not line.startswith("dims:"):
                raise TensorParseError("expected 'dims: n1 n2 ...' header", lineno)
            body = line[len("dims:") :].split()
            if not body:
                raise TensorParseError("empty dims header", lineno)
            try:
                dims = tuple(int(tok) for tok in body)
            except ValueError:
                raise TensorParseError(f"non-integer extent in {body}", lineno) from None
            if any(n < 1 for n in dims):
                raise TensorParseError(f"extents must be positive, got {dims}", lineno)
            continue
        toks = line.split()
        if len(toks) != len(dims):
            raise TensorParseError(
                f"expected {len(dims)} coordinates, got {len(toks)}", lineno
            )
        try:
            coord = tuple(int(tok) for tok in toks)
        except ValueError:
            raise TensorParseError(f"non-integer coordinate in {toks!r}", lineno) from None
        for c, n in zip(coord, dims):
            if not 1 <= c <= n:
                raise TensorParseError(
                    f"coordinate {coord} outside extents {dims}", lineno
                )
        if coord in seen:
            raise TensorParseError(f"duplicate coordinate {coord}", lineno)
        seen.add(coord)
        ones.append(coord)
    if dims is None:
        raise TensorParseError("missing 'dims:' header", 1)
    return TensorMatrix(dims, ones)


def tensor_to_json(A: TensorMatrix) -> dict:
    return {"dims": list(A.dims), "ones": [list(c) for c in A.ones_sorted()]}


def tensor_from_json(data: str | dict) -> TensorMatrix:
    """JSON form {"dims": [...], "ones": [[...], ...]} with the same
    validation as the text format."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise TensorParseError(f"invalid JSON: {exc}") from None
    return _tensor_from_json(data, {})


def _tensor_from_json(data: object, tensors: dict) -> TensorMatrix:
    """`tensor_from_json` of a decoded value, taken from `tensors` when an
    earlier call stored an equal tensor there and stored there otherwise.
    The key is the extents and the ones as tuples, made once their types
    pass the one check below, so 1.0 and true, which equal 1 as dict keys
    but are not JSON integers, never reach `tensors`."""
    if not isinstance(data, dict) or "dims" not in data:
        raise TensorParseError("JSON tensor needs a 'dims' key")
    dims = data["dims"]
    ones = data.get("ones", [])
    try:
        # int() would truncate floats and read booleans and digit strings
        if not set(map(type, itertools.chain(dims, *ones))) <= {int}:
            raise TypeError("extents and coordinates must be JSON integers")
        key = (tuple(dims), tuple(map(tuple, ones)))
        tensor = tensors.get(key)
        if tensor is None:
            tensor = tensors[key] = TensorMatrix._of_ints(*key)
        return tensor
    except (StructureError, RangeError, TypeError, ValueError) as exc:
        raise TensorParseError(f"malformed JSON tensor: {exc}") from None


def all_ones(dims: Iterable[int]) -> TensorMatrix:
    """The all-ones matrix of the given extents (the R pattern family)."""
    dims = tuple(int(n) for n in dims)
    if any(n < 1 for n in dims):
        raise RangeError(f"extents must be positive, got {dims}")
    ones = itertools.product(*(range(1, n + 1) for n in dims))
    return TensorMatrix(dims, ones)
