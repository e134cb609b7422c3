"""Self-tests of the benchmark's own arithmetic and failure accounting.

    python3 -m pytest -p no:cacheprovider bench/test_bench.py

They need neither patternforge nor a timing run: the CLI is replaced by
small fakes.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import Request, Workload  # noqa: E402


# -- self time -----------------------------------------------------------------


def _span(sid, name, start, end, parent=None, tid=1, child=0.0):
    return tracing.Span(sid, name, start, end, parent, 0, tid, end - start - child)


def test_self_time_on_a_synthetic_tree():
    # cli.main [0, 10] on thread 1
    #   extremal.search [1, 7], same thread
    #     containment.has_interval_minor [2, 4], same thread
    #   probability.avoid_probability [7, 10]
    #     two pool-thread trials [7, 9] and [8, 10] overlap for 1 s
    t = tracing.Tracer()
    t.spans = [
        _span(1, "cli.main", 0, 10, child=6 + 3),
        _span(2, "extremal.search", 1, 7, parent=1, child=2),
        _span(3, "containment.has_interval_minor", 2, 4, parent=2),
        _span(4, "probability.avoid_probability", 7, 10, parent=1),
        _span(5, "containment.has_interval_minor", 7, 9, parent=4, tid=2),
        _span(6, "containment.has_interval_minor", 8, 10, parent=4, tid=3),
    ]
    t.cross = {4: [(7, 9), (8, 10)]}
    t.finish()
    got = {s.sid: s.self_s for s in t.spans}
    assert got == {1: 1, 2: 4, 3: 2, 4: 0, 5: 2, 6: 2}
    layers = tracing.layer_self(tracing.summarize(t.spans, {}))
    assert layers["cli"] == 1 and layers["extremal"] == 4
    assert layers["containment"] == 6 and layers["probability"] == 0
    # the layers cover the 10 s root once, plus the 1 s the pool threads overlapped
    assert sum(layers.values()) == 10 + t.overlap_s()
    assert t.overlap_s() == 1


def test_union_length():
    assert tracing.union_length([]) == 0
    assert tracing.union_length([(0, 2), (1, 3), (5, 6)]) == 4


def test_live_wrapping_links_parents_and_aggregates_hot_leaves():
    t = tracing.Tracer()

    def leaf():
        return 1

    hot = t.wrap(leaf, "tensor.count_in_box")

    def inner():
        return hot() + hot()

    inner_w = t.wrap(inner, "containment.find_embedding")

    def outer():
        time.sleep(0.001)
        return inner_w()

    outer_w = t.wrap(outer, "cli.main")
    assert outer_w() == 2  # inactive: no spans
    assert t.spans == []
    t.active = True
    assert outer_w() == 2
    t.active = False
    names = {s.name: s for s in t.spans}
    assert set(names) == {"cli.main", "containment.find_embedding"}
    assert names["containment.find_embedding"].parent == names["cli.main"].sid
    assert t.aggregates()["tensor.count_in_box"][0] == 2
    summ = tracing.summarize(t.spans, t.aggregates())
    total_self = sum(row["self_s"] for row in summ.values())
    assert abs(total_self - names["cli.main"].dur) < 1e-9


# -- percentiles -----------------------------------------------------------------


def test_percentile_leaves_ten_samples_beyond_p90_at_100():
    values = list(range(1, 101))
    assert run.percentile_with_tail(values, 90) == (90, 10)
    assert run.percentile_with_tail(values, 50) == (50, 50)
    assert run.percentile_with_tail(values[:99], 90)[1] < run.PERCENTILE_TAIL


def _fake_workload(n, check=None):
    reqs = [Request(key=f"r{i}", family="fake", argv=[str(i)], check=check) for i in range(n)]
    return Workload("fake", "requests", reqs)


def test_latency_is_the_fastest_repetition_and_tails_are_enforced():
    slow = {"r1"}
    state = {"pass": 0}

    def fake_main(argv):
        if argv[0] == "0":
            state["pass"] += 1
        if f"r{argv[0]}" in slow and state["pass"] == 1:
            time.sleep(0.02)
        return 0

    wl = _fake_workload(120)
    passes = [run.run_pass(wl, fake_main) for _ in range(3)]
    result = run.tally(wl, passes)
    assert result["attempted"] == 360 and result["samples"] == 120
    assert max(result["families"]["fake"]) < 0.02  # the slow first send does not count
    assert result["beyond_p90"] == 12
    run.require_tail(result)
    short = run.tally(wl, [[o for o in passes[0][:99]]])
    try:
        run.require_tail(short)
    except SystemExit:
        pass
    else:
        raise AssertionError("a 99-request pass leaves only 9 samples beyond p90")


# -- failure accounting -----------------------------------------------------------


def test_wrong_answers_count_as_failures_without_ending_the_run():
    def check(code, payload):
        return None if payload == {"answer": 42} else f"got {payload}"

    def fake_main(argv):
        i = int(argv[0])
        if i == 3:
            raise RuntimeError("boom")
        if i == 5:
            print("not json")
            return 0
        print(json.dumps({"answer": 41 if i == 7 else 42}))
        return 0

    wl = _fake_workload(10, check)
    result = run.tally(wl, [run.run_pass(wl, fake_main)])
    assert result["attempted"] == 10
    assert result["failed"] == 3
    assert {key for key, _ in result["failures"]} == {"r3", "r5", "r7"}
    assert result["units"] == 7


def test_frozen_answer_mismatch_is_a_failure():
    wl = _fake_workload(2)
    wl.frozen = {"r0": checks.digest({"x": 1})}
    outcome = run.Outcome(wl.requests[0], 0, json.dumps({"x": 2}), 0.0, None)
    assert run.judge(outcome, wl.frozen) is not None
    outcome = run.Outcome(wl.requests[0], 0, json.dumps({"x": 1}), 0.0, None)
    assert run.judge(outcome, wl.frozen) is None


# -- independent checks ------------------------------------------------------------


def test_lis_and_literal_deciders():
    assert checks.lis_length([3, 1, 4, 1, 5, 9, 2, 6]) == 4
    ident = [(1, 1), (2, 2)]
    anti = [(1, 3), (2, 2), (3, 1)]
    assert not checks.contains_literal(anti, (3, 3), ident, (2, 2))
    assert checks.contains_literal([(1, 1), (3, 3)], (3, 3), ident, (2, 2))
    j2 = [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert not checks.minor_literal(anti, (3, 3), j2, (2, 2))
    assert not checks.minor_literal([(1, 2), (2, 1), (3, 4), (4, 3)], (4, 4), j2, (2, 2))
    assert checks.minor_literal([(1, 2), (2, 4), (3, 1), (4, 3)], (4, 4), j2, (2, 2))


def test_witness_and_embedding_rechecks_reject_bad_certificates():
    host = [(1, 2), (2, 4), (3, 1), (4, 3)]
    j2 = [(1, 1), (1, 2), (2, 1), (2, 2)]
    good = [[[1, 2], [3, 4]], [[1, 2], [3, 4]]]
    bad = [[[1, 1], [2, 4]], [[1, 2], [3, 4]]]
    assert checks.grid_witness_error(host, (4, 4), j2, (2, 2), good) is None
    assert checks.grid_witness_error(host, (4, 4), j2, (2, 2), bad) is not None
    ident = [(1, 1), (2, 2)]
    assert checks.embedding_error(host, (4, 4), ident, (2, 2), [((1, 1), (1, 2)), ((2, 2), (2, 4))]) is None
    assert checks.embedding_error(host, (4, 4), ident, (2, 2), [((1, 1), (3, 1)), ((2, 2), (1, 2))]) is not None


def test_binomial_check():
    assert checks.binomial_error(30, 100, 0.25, 0.35) is None
    assert checks.binomial_error(90, 100, 0.25, 0.35) is not None
    assert checks.binomial_error(0, 100, 0.25, 0.35) is not None
    assert checks.binomial_error(0, 2, 0.0, 0.4) is None
