"""patternforge benchmark: one closed-loop client driving the CLI in-process.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: extremal-table, cache-replay, montecarlo, certify (README.md says
why each exists).  Every request is `patternforge.cli.main(argv)` with
`--format json`, sent only after the previous one returned; every answer is
checked.  A run repeats its workload's pass (a fixed request list built from
the seed) for about --seconds, in whole passes, and prints human-readable
lines followed by one JSON result line.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the same passes
untraced and then traced (wrapping every public function of the package
from outside), writes the spans to .bench_out/, and reports the per-layer
metrics.  The package is imported from src/ next to this directory; the
benchmark refuses to run without it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3
PERCENTILE_TAIL = 10  # samples that must lie beyond a reported percentile

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def import_package():
    """Import patternforge from this checkout's src/, and only from there."""
    src = ROOT / "src"
    if not (src / "patternforge" / "__init__.py").is_file():
        raise SystemExit(f"error: no patternforge package under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import patternforge
    import patternforge.cli

    import_s = time.perf_counter() - t0
    if Path(patternforge.__file__).resolve().parent != (src / "patternforge").resolve():
        raise SystemExit(f"error: imported patternforge from {patternforge.__file__}")
    return patternforge, import_s


def workdir(name: str, seed: int, tag: str) -> Path:
    path = OUT / f"{name}-{seed}-{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# set-up time, in fresh interpreters
# ---------------------------------------------------------------------------


def probe_setup(name: str, seed: int) -> None:
    """Child mode: import, build the inputs, report, clean up."""
    pf, import_s = import_package()
    work = workdir(name, seed, "probe")
    try:
        workloads.BUILDERS[name](seed, work, pf)
        print(json.dumps({"import_s": import_s}), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall time from starting a fresh interpreter to the point where the
    first request could be sent, over SETUP_PROBES interpreters."""
    setups, imports = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", name, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        try:
            line = child.stdout.readline()
            setups.append(time.perf_counter() - t0)
            child.stdout.read()
        finally:
            child.stdout.close()
            code = child.wait(timeout=120)
        if code != 0 or not line:
            raise SystemExit(f"error: set-up probe exited with {code}")
        imports.append(json.loads(line)["import_s"])
    return setups, imports


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Outcome:
    __slots__ = ("request", "code", "out", "latency", "error")

    def __init__(self, request, code, out, latency, error):
        self.request = request
        self.code = code
        self.out = out
        self.latency = latency
        self.error = error


def send(main, request) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(request.argv)
    except Exception as exc:  # a crash is a failed request, not a failed run
        code, error = None, f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    return Outcome(request, code, out.getvalue(), latency, error)


def parse(outcome: Outcome):
    try:
        return json.loads(outcome.out) if outcome.out.strip() else None
    except json.JSONDecodeError:
        return None


def run_pass(wl, main, tracer=None) -> list[Outcome]:
    """Send every request of one pass, in order; a request's follow-up is
    sent right after it."""
    wl.start_pass()
    outcomes = []
    queue = list(reversed(wl.requests))
    rid = 0
    while queue:
        req = queue.pop()
        if tracer is not None:
            tracer.request = rid
            tracer.active = True
        outcome = send(main, req)
        if tracer is not None:
            tracer.active = False
        rid += 1
        outcomes.append(outcome)
        if req.follow is not None and outcome.code == 0:
            payload = parse(outcome)
            nxt = req.follow(payload) if payload is not None else None
            if nxt is not None:
                queue.append(nxt)
    return outcomes


def judge(outcome: Outcome, frozen: dict) -> str | None:
    """Why a request failed, or None.  Never raises."""
    if outcome.error is not None:
        return outcome.error
    payload = parse(outcome)
    try:
        err = outcome.request.check(outcome.code, payload) if outcome.request.check else (
            None if outcome.code == 0 else f"exit {outcome.code}")
    except Exception as exc:  # a malformed answer must not end the run
        err = f"answer could not be checked: {type(exc).__name__}: {exc}"
    if err is None and outcome.request.key in frozen:
        if checks.digest(payload) != frozen[outcome.request.key]:
            err = "answer differs from the frozen answer for the default seed"
    return err


def percentile_with_tail(values, q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1], len(ordered) - int(rank)


def quiet_collector() -> None:
    """Move everything allocated so far (the imported modules, the inputs,
    the harness) out of the collector's reach.  Without this, a full
    collection rescans that heap every few requests and adds its cost to
    whichever request triggers it; a CLI process that serves one request
    never pays it.  Collections of what the requests themselves allocate
    still run and still count."""
    gc.collect()
    gc.freeze()


def run_passes(wl, main, seconds: float, tracer=None):
    """Whole passes for about `seconds` of wall time: at least one, and
    another whenever the mean pass so far still fits in what is left."""
    t0 = time.perf_counter()
    results = [run_pass(wl, main, tracer)]
    while True:
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(results) > seconds:
            return results
        results.append(run_pass(wl, main, tracer))


def require_tail(result) -> None:
    """A pass must hold enough distinct requests for PERCENTILE_TAIL samples
    to lie beyond p90; a workload that breaks this is misdefined."""
    if result["beyond_p90"] < PERCENTILE_TAIL:
        raise SystemExit(
            f"error: only {result['beyond_p90']} latency samples beyond p90; "
            f"a pass needs more distinct requests")


def tally(wl, passes) -> dict:
    """Failures, work done and latency percentiles over a list of passes.

    Every pass sends the same requests, and a request's latency is its
    fastest repetition, so that a slow spell of the machine during one pass
    does not count.  Throughput is the work units of the requests that
    passed every check over the sum of those latencies; attempted and failed
    count every send."""
    best: dict[str, float] = {}
    request = {}
    failures = []
    for p in passes:
        for o in p:
            key = o.request.key
            request[key] = o.request
            best[key] = min(best.get(key, o.latency), o.latency)
            err = judge(o, wl.frozen)
            if err is not None:
                failures.append((key, err))
    failed_keys = {key for key, _ in failures}
    units = sum(r.units for key, r in request.items() if key not in failed_keys)
    lats = list(best.values())
    p50, _ = percentile_with_tail(lats, 50)
    p90, beyond = percentile_with_tail(lats, 90)
    families: dict[str, list[float]] = {}
    for key, r in request.items():
        families.setdefault(r.family, []).append(best[key])
    return {
        "attempted": sum(len(p) for p in passes), "failed": len(failures),
        "failures": failures, "busy_s": sum(lats), "units": units, "p50": p50,
        "p90": p90, "samples": len(lats), "beyond_p90": beyond,
        "passes": len(passes), "families": families,
    }


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(tracer, traced_wall: float, passes: int, overhead: float,
                  import_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced passes.  Counts and seconds are per
    pass; shares are over the traced wall time."""
    tracer.finish()
    summ = tracing.summarize(tracer.spans, tracer.aggregates())
    empty = {"calls": 0, "self_s": 0.0, "durs": []}
    by_id = {s.sid: s for s in tracer.spans}

    def children_of(parent_name, prefix=""):
        return [s for s in tracer.spans if s.name.startswith(prefix) and s.parent in by_id
                and by_id[s.parent].name == parent_name]

    def pct_us(durs, q):
        return percentile_with_tail(durs, q)[0] * 1e6 if durs else 0.0

    m: dict[str, tuple[float, str]] = {"cli.import_s": (import_s, "s")}
    for name in ("cli.main", "tensor.count_in_box", "tensor.TensorMatrix",
                 "containment.find_embedding", "containment.has_interval_minor",
                 "containment.contains_interval_minor", "construct.random_permutation",
                 "extremal.search", "extremal.verify", "extremal.load_records",
                 "extremal.append_record"):
        m[f"{name}.calls"] = (summ.get(name, empty)["calls"] / passes, "count")
    for name in ("cli.main", "tensor.count_in_box", "tensor.TensorMatrix", "tensor.parse",
                 "containment.find_embedding", "containment.has_interval_minor",
                 "containment.contains_interval_minor", "containment.verify_witness",
                 "construct.random_permutation", "construct.avoider", "extremal.search",
                 "extremal.verify", "probability.avoid_probability"):
        m[f"{name}.self_s"] = (summ.get(name, empty)["self_s"] / passes, "s")
    for name in ("containment.has_interval_minor", "construct.random_permutation",
                 "extremal.append_record"):
        durs = summ.get(name, empty)["durs"]
        m[f"{name}.p50_us"] = (pct_us(durs, 50), "us")
    durs = summ.get("containment.has_interval_minor", empty)["durs"]
    m["containment.has_interval_minor.p90_us"] = (pct_us(durs, 90), "us")

    avoider_s = sum(s.dur for s in tracer.spans if s.name == "construct.avoider")
    check_s = sum(s.dur for s in children_of("construct.avoider", "containment."))
    m["construct.verify_share"] = (check_s / avoider_s if avoider_s else 0.0, "ratio")

    parsed = tracer.records_parsed
    load_s = sum(summ.get("extremal.load_records", empty)["durs"])
    m["extremal.load_records.records"] = (parsed / passes, "count")
    m["extremal.load_records.us_per_record"] = (load_s / parsed * 1e6 if parsed else 0.0, "us")
    searches = summ.get("extremal.search", empty)["calls"]
    appending = {s.parent for s in children_of("extremal.search", "extremal.append_record")}
    m["extremal.cache.hit_frac"] = (1 - len(appending) / searches if searches else 0.0, "ratio")
    m["extremal.cache.useful_record_frac"] = (
        tracer.records_useful / parsed if parsed else 0.0, "ratio")

    trials = [s.dur for s in children_of("probability.avoid_probability",
                                         "containment.has_interval_minor")]
    m["probability.trials"] = (len(trials) / passes, "count")
    m["probability.trial_p50_us"] = (pct_us(trials, 50), "us")
    est_wall = sum(summ.get("probability.avoid_probability", empty)["durs"])
    busy = sum(s.dur for s in children_of("probability.avoid_probability"))
    m["probability.parallel_efficiency"] = (
        busy / (est_wall * tracer.threads) if est_wall else 0.0, "ratio")

    layers = tracing.layer_self(summ)
    roots = sum(s.dur for s in tracer.spans if s.parent is None)
    for layer, secs in layers.items():
        m[f"{layer}.share"] = (secs / traced_wall, "ratio")
    m["bench.share"] = ((traced_wall - roots) / traced_wall, "ratio")
    m["trace.overhead_frac"] = (overhead, "ratio")
    # layer self times + bench time = traced wall + time two threads overlapped
    m["trace.accounted_frac"] = (
        (sum(layers.values()) + traced_wall - roots - tracer.overlap_s()) / traced_wall, "ratio")
    return m


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def src_lines() -> int:
    total = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        total += sum(1 for _ in path.open())
    return total


def commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0

    pf, _ = import_package()
    import numpy
    import scipy

    setups, imports = measure_setup(args.workload, args.seed)
    work = workdir(args.workload, args.seed, "run")
    try:
        wl = workloads.BUILDERS[args.workload](args.seed, work, pf)
        wl.frozen = workloads.frozen_answers(args.workload, args.seed)
        quiet_collector()
        if args.trace:
            half = args.seconds / 2
            plain = run_passes(wl, pf.cli.main, half)
            tracer = tracing.Tracer()
            tracer.install(pf)
            try:
                t0 = time.perf_counter()
                traced = run_passes(wl, pf.cli.main, half, tracer)
                traced_wall = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            result = tally(wl, plain + traced)
            plain_t, traced_t = tally(wl, plain), tally(wl, traced)
            overhead = 1 - (traced_t["units"] / traced_t["busy_s"]) / (
                plain_t["units"] / plain_t["busy_s"])
            metrics = layer_metrics(tracer, traced_wall, len(traced), overhead,
                                    statistics.median(imports))
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        else:
            passes = run_passes(wl, pf.cli.main, args.seconds)
            result = tally(wl, passes)
            require_tail(result)
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "throughput": (result["units"] / result["busy_s"], "1/s"),
                "latency_p50_ms": (result["p50"] * 1e3, "ms"),
                "latency_p90_ms": (result["p90"] * 1e3, "ms"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "commit": commit(), "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "src_lines": src_lines(), "passes": result["passes"],
        "requests": result["attempted"], "requests_per_pass": len(wl.requests),
        "throughput_unit": wl.unit, "latency_samples": result["samples"],
        "samples_beyond_p90": result["beyond_p90"],
        "setup_samples_s": setups, "import_samples_s": imports,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"meta-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(meta, indent=2) + "\n")

    fail_frac = result["failed"] / result["attempted"]
    print(f"# {args.workload} seed={args.seed} passes={result['passes']} "
          f"requests={result['attempted']} ({wl.unit} per second in throughput)")
    for key, err in result["failures"][:20]:
        print(f"# FAIL {key}: {err}")
    for fam, lats in sorted(result["families"].items()):
        print(f"# family {fam}: n={len(lats)} median={statistics.median(lats) * 1e3:.2f} ms "
              f"max={max(lats) * 1e3:.2f} ms")
    print(f"# fail_frac = {fail_frac:.6f} (failed / attempted)")
    print(f"# latency samples = {result['samples']} (fastest of {result['passes']} passes each), "
          f"beyond p90 = {result['beyond_p90']}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print("# meta " + json.dumps(meta))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
