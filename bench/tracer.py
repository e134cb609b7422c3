"""In-memory span tracer that wraps patternforge's public functions from
outside the package.

A span is (id, name, start, end, parent id, request id, thread id).  Spans
are kept in memory and written out once, when the run ends.  Self time is a
span's duration minus the time its child spans cover: children on the
span's own thread run one after another, so their durations are summed;
children on other threads (the Monte Carlo thread pool) may overlap, so the
union of their intervals is subtracted.

Hot leaves (box queries, tensor construction) are called hundreds of
thousands of times per pass.  When such a leaf runs under a parent span on
its own thread it is not stored as a span; its duration is added to the
parent's child time and to a per-name aggregate (calls, total seconds).
The span file carries those aggregates as extra records.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

# public function -> span name, where it is not "<module>.<function>"
RENAMES = {
    ("tensor", "parse_tensor"): "tensor.parse",
    ("tensor", "tensor_from_json"): "tensor.parse",
    ("extremal", "max_ones_avoiding"): "extremal.search",
    ("extremal", "max_ones_avoiding_minor"): "extremal.search",
    ("construct", "blowup_avoider"): "construct.avoider",
    ("construct", "scale_avoider"): "construct.avoider",
}

# (module, class, method, span name); methods are wrapped on the class
METHODS = (
    ("tensor", "TensorMatrix", "__init__", "tensor.TensorMatrix"),
    ("tensor", "TensorMatrix", "count_in_box", "tensor.count_in_box"),
    ("tensor", "PermutationTensor", "__init__", "tensor.PermutationTensor"),
    ("extremal", "ExtremalRecord", "verify", "extremal.verify"),
)

HOT = frozenset({"tensor.count_in_box", "tensor.TensorMatrix"})

LAYERS = ("cli", "tensor", "containment", "construct", "extremal", "probability")

# modules that call names imported from a sibling module
IMPORTERS = ("extremal", "probability", "construct", "containment", "cli")


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "request", "tid", "self_s")

    def __init__(self, sid, name, start, end, parent, request, tid, self_s):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.request = request
        self.tid = tid
        self.self_s = self_s

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans only while `active` is set, so that the benchmark's
    own code between requests stays out of the trace.

    Besides spans it counts, at the same boundaries: records parsed by
    load_records and how many of them match the key of the search that
    loaded them, and the thread width of each estimate."""

    def __init__(self):
        self.active = False
        self.request = None
        self.spans: list[Span] = []
        self.cross: dict[int, list] = {}  # parent id -> [(start, end)] on other threads
        self.records_parsed = 0
        self.records_useful = 0
        self.threads = 1
        self._search_key = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._aggs: list[dict] = []
        self._lock = threading.Lock()
        self._main_tid = threading.get_ident()
        self._main_stack: list = []
        self._undo: list = []

    # -- recording ------------------------------------------------------

    def _stack(self, tid) -> list:
        if tid == self._main_tid:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _agg(self) -> dict:
        agg = getattr(self._local, "agg", None)
        if agg is None:
            agg = self._local.agg = {}
            with self._lock:
                self._aggs.append(agg)
        return agg

    def _before(self, name, fn, args):
        if name == "extremal.search":
            kind = "f" if fn.__name__ == "max_ones_avoiding" else "m"
            self._search_key = (kind, args[0], args[1])

    def _after(self, name, kwargs, result):
        if name == "extremal.load_records":
            self.records_parsed += len(result)
            if self._search_key is not None:
                kind, n, P = self._search_key
                self.records_useful += sum(
                    1 for r in result if r.kind == kind and r.n == n and r.pattern == P
                )
        elif name == "extremal.search":
            self._search_key = None
        elif name == "probability.avoid_probability":
            self.threads = kwargs.get("threads", 1)

    def wrap(self, fn, name: str):
        tracer = self
        hot = name in HOT
        hooked = name in ("extremal.search", "extremal.load_records",
                          "probability.avoid_probability")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tid = threading.get_ident()
            stack = tracer._stack(tid)
            # a pool thread's first span hangs under the main thread's open span
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = None
            if hooked:
                tracer._before(name, fn, args)
            frame = [next(tracer._ids), time.perf_counter(), tid, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                sid, start, _, child = frame
                dur = end - start
                same_thread = parent is not None and parent[2] == tid
                if same_thread:
                    parent[3] += dur
                if hot and same_thread and child == 0.0:
                    agg = tracer._agg()
                    slot = agg.get(name)
                    if slot is None:
                        slot = agg[name] = [0, 0.0]
                    slot[0] += 1
                    slot[1] += dur
                else:
                    pid = parent[0] if parent is not None else None
                    tracer.spans.append(
                        Span(sid, name, start, end, pid, tracer.request, tid, dur - child)
                    )
                    if parent is not None and not same_thread:
                        with tracer._lock:
                            tracer.cross.setdefault(pid, []).append((start, end))
            if hooked:
                tracer._after(name, kwargs, result)
            return result

        return traced

    # -- installing ------------------------------------------------------

    def install(self, pkg) -> None:
        """Wrap every public function of each module, on its home module and
        on every module (and the package) that imported its name."""
        mods = {name: getattr(pkg, name) for name in LAYERS}
        for home, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrapped = self.wrap(obj, RENAMES.get((home, attr), f"{home}.{attr}"))
                for target in [mod, pkg] + [mods[m] for m in IMPORTERS]:
                    if vars(target).get(attr) is obj:
                        self._undo.append((target, attr, obj))
                        setattr(target, attr, wrapped)
        for home, cls_name, meth, span in METHODS:
            cls = getattr(mods[home], cls_name)
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, self.wrap(orig, span))

    def uninstall(self) -> None:
        for target, attr, obj in reversed(self._undo):
            setattr(target, attr, obj)
        self._undo.clear()

    # -- results ---------------------------------------------------------

    def finish(self) -> None:
        """Subtract cross-thread children (as the union of their intervals)
        from their parents' self time."""
        by_id = {s.sid: s for s in self.spans}
        for pid, intervals in self.cross.items():
            by_id[pid].self_s -= union_length(intervals)

    def overlap_s(self) -> float:
        """Time counted twice because cross-thread children ran at once."""
        by_id = {s.sid: s for s in self.spans}
        return sum(
            sum(e - s for s, e in ivs) - union_length(ivs)
            for pid, ivs in self.cross.items() if pid in by_id
        )

    def aggregates(self) -> dict[str, list]:
        out: dict[str, list] = {}
        for agg in self._aggs:
            for name, (calls, total) in agg.items():
                slot = out.setdefault(name, [0, 0.0])
                slot[0] += calls
                slot[1] += total
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "request": s.request, "thread": s.tid,
                    "self_s": s.self_s,
                }) + "\n")
            for name, (calls, total) in sorted(self.aggregates().items()):
                fh.write(json.dumps(
                    {"aggregate": name, "calls": calls, "total_s": total}
                ) + "\n")


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    lo = hi = None
    for a, b in sorted(intervals):
        if hi is None or a > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    if hi is not None:
        total += hi - lo
    return total


def summarize(spans, aggregates) -> dict:
    """Per span name: calls, self seconds and the list of durations."""
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "durs": []})
        row["calls"] += 1
        row["self_s"] += s.self_s
        row["durs"].append(s.dur)
    for name, (calls, total) in aggregates.items():
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "durs": []})
        row["calls"] += calls
        row["self_s"] += total
    return out


def layer_self(summary) -> dict[str, float]:
    """Self seconds per package module."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, row in summary.items():
        out[name.split(".", 1)[0]] += row["self_s"]
    return out
