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

import fcntl
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .containment import (
    _Budget, _embedding, _embedding_plan, _need_masks, _sweep, contains_pattern,
    has_interval_minor,
)
from .errors import (
    BudgetExceededError, PreconditionError, StructureError, TensorParseError, VerificationError
)
from .tensor import Coord, TensorMatrix, _tensor_from_json, tensor_to_json

_ALGO = "bnb-lex-1"

# the first 16 hex digits of the sha256 of json.dumps({"algo": _ALGO,
# "reflect": False}, sort_keys=True), written out so that no CLI process
# loads hashlib for it; "reflect" was an optional symmetry cut, since
# removed, and stays so that records cached under earlier versions match
_FINGERPRINT = "b16ed3eec707f741"

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
        if self.time_budget is not None and not self.time_budget > 0:  # NaN too
            raise PreconditionError("time budget must be positive")
        if self.cache_dir is not None:
            _check_cache_dir(self.cache_dir)

    def fingerprint(self) -> str:
        """Digest of everything that can influence the found witness."""
        return _FINGERPRINT


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
        return cls._from_json(data, {})

    @classmethod
    def _from_json(cls, data: dict, tensors: dict) -> "ExtremalRecord":
        """`from_json`, taking the pattern and the witness from `tensors`
        when an earlier record of the same read stored an equal tensor, and
        adding them there otherwise."""
        try:
            # int() would truncate floats and read booleans and digit strings
            if (type(data["n"]), type(data["d"]), type(data["value"])) != (int, int, int):
                raise TypeError("n, d and value must be JSON integers")
            if not (isinstance(data["pattern"], dict) and isinstance(data["witness"], dict)):
                raise TypeError("pattern and witness must be JSON objects")
            pattern = _tensor_from_json(data["pattern"], tensors)
            return cls(
                kind=data["kind"],
                n=data["n"],
                d=data["d"],
                pattern=pattern,
                value=data["value"],
                witness=_tensor_from_json(data["witness"], tensors),
                status=data["status"],
                elapsed=float(data["elapsed"]),
                fingerprint=data["fingerprint"],
            )
        except (KeyError, TypeError, ValueError, TensorParseError) as exc:
            raise StructureError(f"malformed record: {exc}") from None


# ---------------------------------------------------------------------------
# branch and bound
# ---------------------------------------------------------------------------


def _branch_and_bound(
    dims: tuple[int, ...],
    creates_containment,
    cfg: SearchConfig,
    seed: ExtremalRecord | None,
):
    """(value, ones, status) of the best avoider found, starting from the
    cached `seed`; one budget node is one visit of a cell index.  A cell
    that creates no containment is taken first; a leaf, or a node that
    cannot beat the best, pops the last taken index j and visits j + 1
    without cell j, and with nothing to pop the search is exact."""
    cells = list(itertools.product(*(range(1, n + 1) for n in dims)))  # lex order
    total = len(cells)
    best_value = seed.value if seed else 0
    best_ones = seed.witness.ones if seed else frozenset()
    chosen: list[Coord] = []
    taken: list[int] = []
    spend = _Budget(cfg.node_budget, cfg.time_budget).spend
    i = 0
    try:
        while True:
            spend()
            if len(chosen) > best_value:
                best_value = len(chosen)
                best_ones = frozenset(chosen)
            if i < total and len(chosen) + (total - i) > best_value:
                if not creates_containment(chosen, cells[i]):
                    chosen.append(cells[i])
                    taken.append(i)
                i += 1
            elif taken:
                chosen.pop()
                i = taken.pop() + 1
            else:
                return best_value, best_ones, "exact"
    except BudgetExceededError:
        return best_value, best_ones, "lower-bound-only"


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def records_path(cache_dir: str | Path) -> Path:
    return Path(cache_dir) / RECORDS_FILENAME


def _check_cache_dir(cache_dir: str | Path) -> None:
    """PreconditionError when `cache_dir` names something that exists and is
    not a directory, where no read could find records nor any append write
    them; run before any read, search or append."""
    if not os.path.isdir(cache_dir) and os.path.exists(cache_dir):
        raise PreconditionError(f"cache directory {cache_dir} is not a directory")


def _intact_length(data: bytes) -> int:
    """Length of `data` without a torn tail: a last line, left by a write cut
    short, that has no newline and is not valid JSON."""
    start = data.rfind(b"\n") + 1
    try:
        json.loads(data[start:])
    except ValueError:
        return start
    return len(data)


_DECODER = json.JSONDecoder()


def _parsed_lines(
    cache_dir: str | Path, noted: set[str] | None = None
) -> Iterator[tuple[int, dict]]:
    """(line number, JSON object) for each line of the cache; blank lines and
    a torn tail are skipped, the latter with a note on stderr, and any other
    line that is not a JSON object raises StructureError naming it.  A note
    already in `noted`, the notes printed by earlier reads of the same
    request, is not printed again.

    The intact bytes are decoded once, and each line is read by one scan
    from its start, which is taken when it ends in a JSON object followed on
    its line only by spaces or tabs.  Any other line goes through
    `_line_object`, and so does every line of a file that is not UTF-8 or
    that holds a carriage return, so each answer and error is that of
    reading the lines one by one.
    """
    _check_cache_dir(cache_dir)
    path = records_path(cache_dir)
    if not path.exists():
        return
    data = path.read_bytes()
    intact = data[: _intact_length(data)]
    if len(intact) < len(data):
        torn = intact.count(b"\n") + 1
        note = f"warning: {path}:{torn}: skipped a torn last line"
        noted = set() if noted is None else noted
        if note not in noted:
            print(note, file=sys.stderr)
            noted.add(note)
    try:
        text = intact.decode()
    except UnicodeDecodeError:
        text = None
    if text is None or "\r" in text:
        for lineno, line in enumerate(intact.splitlines(), start=1):
            obj = _line_object(path, lineno, line)
            if obj is not None:
                yield lineno, obj
        return
    pos = lineno = 0
    while pos < len(text):
        lineno += 1
        stop = text.find("\n", pos)
        if stop < 0:
            stop = len(text)
        try:
            obj, end = _DECODER.raw_decode(text, pos)
            taken = end <= stop and isinstance(obj, dict) and not text[end:stop].strip(" \t")
        except json.JSONDecodeError:
            taken = False
        if not taken:
            obj = _line_object(path, lineno, text[pos:stop].encode())
        if obj is not None:
            yield lineno, obj
        pos = stop + 1


def _line_object(path: Path, lineno: int, line: bytes) -> dict | None:
    """The JSON object on line `lineno` of the cache at `path`, None for a
    blank line; StructureError for any other line."""
    if not line.strip():
        return None
    try:
        obj = json.loads(line.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StructureError(f"{path}:{lineno}: {exc}") from None
    if not isinstance(obj, dict):
        raise StructureError(f"{path}:{lineno}: a record must be a JSON object")
    return obj


def _record_at(cache_dir: str | Path, lineno: int, data: dict, tensors: dict) -> ExtremalRecord:
    """The record on line `lineno`, sharing each of its tensors with the
    records read before it into `tensors` that store an equal one."""
    try:
        return ExtremalRecord._from_json(data, tensors)
    except StructureError as exc:
        raise StructureError(f"{records_path(cache_dir)}:{lineno}: {exc}") from None


def load_records(cache_dir: str | Path) -> list[ExtremalRecord]:
    """Every record in the cache; a torn tail is skipped, not an error.
    Equal tensors, patterns or witnesses, share one object; each record is
    still built and checked on its own."""
    tensors: dict = {}
    return [
        _record_at(cache_dir, lineno, data, tensors)
        for lineno, data in _parsed_lines(cache_dir)
    ]


def append_record(cache_dir: str | Path, rec: ExtremalRecord) -> None:
    _check_cache_dir(cache_dir)
    path = records_path(cache_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = (json.dumps(rec.to_json(), sort_keys=True) + "\n").encode()
    with path.open("a+b") as fh:
        # held until the handle closes, so that no other appender writes
        # between this read and the truncate below
        fcntl.flock(fh, fcntl.LOCK_EX)
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


def _cached_lookup(
    cfg: SearchConfig, kind: str, n: int, P: TensorMatrix, noted: set[str] | None = None
):
    """(exact record, best lower-bound record) already stored for this search.

    Each line's kind, n, d, fingerprint and pattern are compared as parsed
    JSON, and only the lines that match are built into records, so a record
    for another key whose tensors are malformed (a witness coordinate outside
    its extents, say) is not an error here; `records list` and `records
    verify` still report it.  A line that is not JSON or not UTF-8 is an
    error wherever it sits; a torn tail is skipped, with a note unless it is
    in `noted`.
    """
    if cfg.cache_dir is None:
        return None, None
    key = (kind, n, P.d, cfg.fingerprint())
    pattern = tensor_to_json(P)
    exact = None
    seed = None
    tensors: dict = {}
    for lineno, data in _parsed_lines(cfg.cache_dir, noted):
        got = (data.get("kind"), data.get("n"), data.get("d"), data.get("fingerprint"))
        if got != key or not _holds_pattern(data, pattern):
            continue
        rec = _record_at(cfg.cache_dir, lineno, data, tensors)
        if rec.status == "exact":
            exact = rec
        elif seed is None or rec.value > seed.value:
            seed = rec
    return exact, seed


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def _run(
    kind: str, n: int, P: TensorMatrix, cfg: SearchConfig, noted: set[str] | None = None
) -> ExtremalRecord:
    if P.is_zero:
        raise PreconditionError("pattern must contain at least one 1")
    if P.d < 2:
        raise PreconditionError("pattern must be at least 2-dimensional")
    if n < 1:
        raise PreconditionError(f"need n >= 1, got {n}")
    d = P.d
    dims = (n,) * d
    exact, seed = _cached_lookup(cfg, kind, n, P, noted)
    if exact is not None:
        exact.verify()
        return exact
    if seed is not None:
        seed.verify()

    if kind == "f":
        # cells arrive in lex order, so the new cell is the lex-greatest one
        plan = _embedding_plan(P, dims, through_last=True)

        def creates_containment(chosen: list[Coord], cell: Coord) -> bool:
            return _embedding(chosen, plan, through=cell) is not None
    else:
        need = _need_masks(P)

        def creates_containment(chosen: list[Coord], cell: Coord) -> bool:
            return _sweep(chosen + [cell], P, dims, need=need) is not None
    start = time.perf_counter()
    value, ones, status = _branch_and_bound(dims, creates_containment, cfg, seed)
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
    value / n^(d-1), the scaling the trivial bounds sandwich.  A torn cache
    tail is noted on stderr once per call, not once per n."""
    if kind not in ("f", "m"):
        raise PreconditionError(f"kind must be 'f' or 'm', got {kind!r}")
    cfg = cfg or SearchConfig()
    noted: set[str] = set()
    out = []
    for n in n_range:
        rec = _run(kind, n, P, cfg, noted)
        out.append(
            RatioPoint(
                n=n,
                value=rec.value,
                ratio=rec.value / n ** (P.d - 1),
                status=rec.status,
            )
        )
    return out
