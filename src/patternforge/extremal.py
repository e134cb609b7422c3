"""Exact extremal values by branch and bound over ones-sets.

Two quantities, one engine: the maximum number of ones in an n x ... x n
matrix avoiding a pattern under ordinary containment, and the same under
interval-minor containment.  Cells are considered in lexicographic order,
include branch first, so the search and its reported witness are fully
deterministic.  Budgets turn an unfinished search into a first-class
lower-bound-only record instead of an error; records persist to append-only
JSONL and later runs resume from the cached best.
"""

from __future__ import annotations

import itertools
import json
import time
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .containment import _embedding, contains_pattern, has_interval_minor
from .errors import PreconditionError, StructureError, TensorParseError, VerificationError
from .tensor import (
    Coord,
    TensorMatrix,
    tensor_from_json,
    tensor_to_json,
)

_ALGO = "bnb-lex-1"

RECORDS_FILENAME = "records.jsonl"


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the branch-and-bound search; budgets of None mean unlimited."""

    node_budget: int | None = None
    time_budget: float | None = None
    cache_dir: str | Path | None = None

    def __post_init__(self):
        if self.node_budget is not None and self.node_budget < 1:
            raise PreconditionError("node budget must be positive")
        if self.time_budget is not None and self.time_budget <= 0:
            raise PreconditionError("time budget must be positive")

    def fingerprint(self) -> str:
        """Digest of everything that can influence the found witness."""
        import hashlib

        # "reflect" was an optional symmetry cut, since removed; the key stays
        # so that records cached under earlier versions keep matching
        payload = json.dumps({"algo": _ALGO, "reflect": False}, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ExtremalRecord:
    """One computed extremal value with its attaining witness.

    kind is 'f' (ordinary containment) or 'm' (interval minor) in records and
    on the wire.  status 'exact' means value is the true maximum; status
    'lower-bound-only' means the budget ran out and value is only attained,
    not proven maximal.
    """

    kind: str
    n: int
    d: int
    pattern: TensorMatrix
    value: int
    witness: TensorMatrix
    status: str
    elapsed: float
    fingerprint: str

    def verify(self) -> None:
        """Internal consistency; raises VerificationError on any breach."""
        if self.kind not in ("f", "m"):
            raise VerificationError(f"unknown record kind {self.kind!r}")
        if self.status not in ("exact", "lower-bound-only"):
            raise VerificationError(f"unknown record status {self.status!r}")
        if self.witness.dims != (self.n,) * self.d:
            raise VerificationError(
                f"witness extents {self.witness.dims} do not match n={self.n}, d={self.d}"
            )
        if self.witness.ones_count != self.value:
            raise VerificationError(
                f"witness has {self.witness.ones_count} ones, record says {self.value}"
            )
        if self.kind == "f":
            if contains_pattern(self.witness, self.pattern):
                raise VerificationError("stored witness contains the pattern")
            if (
                self.status == "exact"
                and self.pattern.ones_count >= 2
                and not self.n ** (self.d - 1) <= self.value <= self.n**self.d
            ):
                raise VerificationError(
                    f"value {self.value} breaks the trivial bounds for n={self.n}, d={self.d}"
                )
        else:
            if has_interval_minor(self.witness, self.pattern):
                raise VerificationError(
                    "stored witness contains the pattern as an interval minor"
                )

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "d": self.d,
            "pattern": tensor_to_json(self.pattern),
            "value": self.value,
            "witness": tensor_to_json(self.witness),
            "status": self.status,
            "elapsed": self.elapsed,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ExtremalRecord":
        try:
            # int() would truncate floats and read booleans and digit strings
            if not {type(data[f]) for f in ("n", "d", "value")} <= {int}:
                raise TypeError("n, d and value must be JSON integers")
            if not all(isinstance(data[f], dict) for f in ("pattern", "witness")):
                raise TypeError("pattern and witness must be JSON objects")
            return cls(
                kind=data["kind"],
                n=data["n"],
                d=data["d"],
                pattern=tensor_from_json(data["pattern"]),
                value=data["value"],
                witness=tensor_from_json(data["witness"]),
                status=data["status"],
                elapsed=float(data["elapsed"]),
                fingerprint=data["fingerprint"],
            )
        except (KeyError, TypeError, ValueError, TensorParseError) as exc:
            raise StructureError(f"malformed record: {exc}") from None


# ---------------------------------------------------------------------------
# interval-minor checker consulted by the search
# ---------------------------------------------------------------------------


class _MinorChecker:
    """Interval-minor check after adding a cell, as one partition scan.

    B is an interval minor of the host iff some partition of every axis into
    B's extent of consecutive parts leaves a 1 of the host in every block
    that a 1 of B selects: witness intervals widen into a partition without
    emptying a block, and every partition is itself a witness.  Each axis
    gets one chart per partition, mapping a coordinate to the 1-based part
    it falls in, so a product of charts maps each 1 of the host to a cell of
    B; the scan tries every product until the images cover the ones of B.
    An axis where B is longer than the host has no partition, so the scan
    finds nothing.
    """

    def __init__(self, dims: tuple[int, ...], B: TensorMatrix):
        self.need = frozenset(B.ones)
        # per axis, per partition: chart[c-1] = the 1-based part of c
        self.axis_charts = [
            [
                [bisect_left(mids + (n,), c) + 1 for c in range(1, n + 1)]
                for mids in itertools.combinations(range(1, n), k - 1)
            ]
            for n, k in zip(dims, B.dims)
        ]

    def creates_containment(self, chosen: list[Coord], cell: Coord) -> bool:
        ones = chosen + [cell]
        placings = [
            [[chart[c[ax] - 1] for c in ones] for chart in charts]
            for ax, charts in enumerate(self.axis_charts)
        ]
        for combo in itertools.product(*placings):
            if self.need.issubset(zip(*combo)):
                return True
        return False


# ---------------------------------------------------------------------------
# branch and bound
# ---------------------------------------------------------------------------


class _Stop(Exception):
    pass


def _branch_and_bound(
    dims: tuple[int, ...],
    creates_containment,
    cfg: SearchConfig,
    seed_value: int,
    seed_ones: frozenset[Coord] | None,
):
    cells = sorted(itertools.product(*(range(1, n + 1) for n in dims)))
    total = len(cells)
    best_value = max(seed_value, 0)
    best_ones = seed_ones or frozenset()
    chosen: list[Coord] = []
    nodes = 0
    deadline = (
        time.perf_counter() + cfg.time_budget if cfg.time_budget is not None else None
    )

    def rec(i: int) -> None:
        nonlocal nodes, best_value, best_ones
        nodes += 1
        if cfg.node_budget is not None and nodes > cfg.node_budget:
            raise _Stop
        if deadline is not None and nodes % 256 == 0 and time.perf_counter() > deadline:
            raise _Stop
        if len(chosen) > best_value:
            best_value = len(chosen)
            best_ones = frozenset(chosen)
        if i == total or len(chosen) + (total - i) <= best_value:
            return
        cell = cells[i]
        if not creates_containment(chosen, cell):
            chosen.append(cell)
            rec(i + 1)
            chosen.pop()
        rec(i + 1)

    status = "exact"
    try:
        rec(0)
    except _Stop:
        status = "lower-bound-only"
    return best_value, best_ones, status, nodes


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def records_path(cache_dir: str | Path) -> Path:
    return Path(cache_dir) / RECORDS_FILENAME


def _intact_length(data: bytes) -> int:
    """Length of `data` without a torn tail: a last line, left by a write cut
    short, that has no newline and is not valid JSON."""
    start = data.rfind(b"\n") + 1
    try:
        json.loads(data[start:])
    except ValueError:
        return start
    return len(data)


def _parsed_lines(cache_dir: str | Path) -> Iterator[tuple[int, dict]]:
    """(line number, JSON object) for each line of the cache; blank lines and
    a torn tail are skipped, any other line that is not a JSON object raises
    StructureError naming it."""
    path = records_path(cache_dir)
    if not path.exists():
        return
    data = path.read_bytes()
    for lineno, line in enumerate(data[: _intact_length(data)].splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StructureError(f"{path}:{lineno}: {exc}") from None
        if not isinstance(obj, dict):
            raise StructureError(f"{path}:{lineno}: a record must be a JSON object")
        yield lineno, obj


def _record_at(cache_dir: str | Path, lineno: int, data: dict) -> ExtremalRecord:
    try:
        return ExtremalRecord.from_json(data)
    except StructureError as exc:
        raise StructureError(f"{records_path(cache_dir)}:{lineno}: {exc}") from None


def load_records(cache_dir: str | Path) -> list[ExtremalRecord]:
    """Every record in the cache; a torn tail is skipped, not an error."""
    return [_record_at(cache_dir, lineno, data) for lineno, data in _parsed_lines(cache_dir)]


def append_record(cache_dir: str | Path, rec: ExtremalRecord) -> None:
    path = records_path(cache_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = (json.dumps(rec.to_json(), sort_keys=True) + "\n").encode()
    with path.open("a+b") as fh:
        fh.seek(0)
        data = fh.read()
        keep = _intact_length(data)
        fh.truncate(keep)  # drop a torn tail so the new line does not fuse onto it
        if keep and data[keep - 1 : keep] != b"\n":
            line = b"\n" + line
        fh.write(line)


def _holds_pattern(data: dict, pattern: dict) -> bool:
    """Whether a parsed record line stores `pattern`, given in tensor_to_json
    form; the line may list the ones in any order."""
    raw = data.get("pattern")
    if not isinstance(raw, dict) or raw.get("dims") != pattern["dims"]:
        return False
    try:
        return sorted(raw.get("ones", [])) == pattern["ones"]
    except TypeError:  # ones that cannot be ordered cannot be loaded either
        return False


def _cached_lookup(cfg: SearchConfig, kind: str, n: int, P: TensorMatrix):
    """(exact record, best lower-bound record) already stored for this search.

    Each line's kind, n, d, fingerprint and pattern are compared as parsed
    JSON, and only the lines that match are built into records, so a record
    for another key whose tensors are malformed (a witness coordinate outside
    its extents, say) is not an error here; `records list` and `records
    verify` still report it.  A line that is not JSON or not UTF-8 is an
    error wherever it sits; a torn tail is skipped.
    """
    if cfg.cache_dir is None:
        return None, None
    fields = (("kind", kind), ("n", n), ("d", P.d), ("fingerprint", cfg.fingerprint()))
    pattern = tensor_to_json(P)
    exact = None
    seed = None
    for lineno, data in _parsed_lines(cfg.cache_dir):
        if any(data.get(f) != v for f, v in fields) or not _holds_pattern(data, pattern):
            continue
        rec = _record_at(cfg.cache_dir, lineno, data)
        if rec.status == "exact":
            exact = rec
        elif seed is None or rec.value > seed.value:
            seed = rec
    return exact, seed


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def _run(kind: str, n: int, P: TensorMatrix, cfg: SearchConfig) -> ExtremalRecord:
    if P.is_zero:
        raise PreconditionError("pattern must contain at least one 1")
    if P.d < 2:
        raise PreconditionError("pattern must be at least 2-dimensional")
    if n < 1:
        raise PreconditionError(f"need n >= 1, got {n}")
    d = P.d
    dims = (n,) * d
    exact, seed = _cached_lookup(cfg, kind, n, P)
    if exact is not None:
        exact.verify()
        return exact
    seed_value, seed_ones = -1, None
    if seed is not None:
        seed.verify()
        seed_value, seed_ones = seed.value, seed.witness.ones

    if kind == "f":
        # cells arrive in lex order, so the new cell is the lex-greatest one
        def creates_containment(chosen: list[Coord], cell: Coord) -> bool:
            return _embedding(chosen + [cell], dims, P, through_last=True) is not None
    else:
        creates_containment = _MinorChecker(dims, P).creates_containment
    start = time.perf_counter()
    value, ones, status, _nodes = _branch_and_bound(
        dims, creates_containment, cfg, seed_value, seed_ones
    )
    elapsed = time.perf_counter() - start
    rec = ExtremalRecord(
        kind=kind,
        n=n,
        d=d,
        pattern=P,
        value=value,
        witness=TensorMatrix(dims, ones),
        status=status,
        elapsed=elapsed,
        fingerprint=cfg.fingerprint(),
    )
    rec.verify()
    if cfg.cache_dir is not None:
        append_record(cfg.cache_dir, rec)
    return rec


def max_ones_avoiding(n: int, P: TensorMatrix, cfg: SearchConfig | None = None) -> ExtremalRecord:
    """Maximum ones in an n x ... x n matrix avoiding P as a submatrix
    (ordinary containment), with an attaining witness."""
    return _run("f", n, P, cfg or SearchConfig())


def max_ones_avoiding_minor(
    n: int, B: TensorMatrix, cfg: SearchConfig | None = None
) -> ExtremalRecord:
    """Maximum ones in an n x ... x n matrix avoiding B as an interval
    minor, with an attaining witness."""
    return _run("m", n, B, cfg or SearchConfig())


@dataclass(frozen=True)
class RatioPoint:
    n: int
    value: int
    ratio: float
    status: str


def ratio_sequence(
    P: TensorMatrix,
    n_range,
    cfg: SearchConfig | None = None,
    kind: str = "f",
) -> list[RatioPoint]:
    """Exact values of the extremal function over a range of n together with
    value / n^(d-1), the scaling the trivial bounds sandwich."""
    if kind not in ("f", "m"):
        raise PreconditionError(f"kind must be 'f' or 'm', got {kind!r}")
    run = max_ones_avoiding if kind == "f" else max_ones_avoiding_minor
    out = []
    for n in n_range:
        rec = run(n, P, cfg)
        out.append(
            RatioPoint(
                n=n,
                value=rec.value,
                ratio=rec.value / n ** (P.d - 1),
                status=rec.status,
            )
        )
    return out
