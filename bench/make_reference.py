"""Regenerate the frozen answers in bench/reference/.

    python3 bench/make_reference.py [extremal|montecarlo|certify ...]

extremal.json      exact values of the extremal table and its frontier
                   points, with one witness per table point (the cache-replay
                   fill).  Every table value (n <= 4) is re-derived here
                   independently: the witness avoids the pattern by the
                   literal checks, and no set with one more 1 avoids it.
montecarlo.json    high-trial avoidance counts for every Monte Carlo point,
                   with their exact (Clopper-Pearson) interval at the
                   binomial test's level.
certify_default_seed.json
                   answer digests of every certify request at the default
                   seed; every answer must pass its checks before it is
                   frozen.

Regenerating is a change to the benchmark, not to the program: do it only
in a change that defines or corrects the benchmark.
"""

from __future__ import annotations

import itertools
import json
import sys
import tempfile
from pathlib import Path

import run  # also puts bench/ on sys.path
import checks
import workloads

REF_SEED = 20260814


def _no_larger_avoider(kind, n, d, pattern, kdims, value) -> bool:
    """Hereditary property: if no set of value+1 cells avoids, none larger does."""
    decide = checks.contains_literal if kind == "f" else checks.minor_literal
    cells = list(itertools.product(range(1, n + 1), repeat=d))
    return all(
        decide(ones, (n,) * d, pattern, kdims)
        for ones in itertools.combinations(cells, value + 1)
    )


def make_extremal(pf) -> dict:
    values, witnesses = {}, {}
    classes = [(pid, dims, ones) for pid, dims, ones in workloads.pattern_classes()]
    assert len(classes) == 20, len(classes)
    for pid, dims, ones in classes:
        P = pf.TensorMatrix(dims, ones)
        for kind in "fm":
            search = pf.max_ones_avoiding if kind == "f" else pf.max_ones_avoiding_minor
            for n in workloads.TABLE_N:
                rec = search(n, P)
                assert rec.status == "exact"
                wit = rec.witness.ones_sorted()
                decide = checks.contains_literal if kind == "f" else checks.minor_literal
                assert not decide(wit, (n, n), ones, dims), (pid, kind, n)
                assert _no_larger_avoider(kind, n, 2, ones, dims, rec.value), (pid, kind, n)
                values.setdefault(pid, {}).setdefault(kind, {})[str(n)] = rec.value
                witnesses.setdefault(pid, {}).setdefault(kind, {})[str(n)] = [list(c) for c in wit]
        print(pid, values[pid], flush=True)
    frontier = {pid: (dims, ones) for pid, dims, ones in classes}
    frontier["I2x3"] = workloads.I2_3D
    for kind, n, pid in workloads.FRONTIER:
        dims, ones = frontier[pid]
        search = pf.max_ones_avoiding if kind == "f" else pf.max_ones_avoiding_minor
        rec = search(n, pf.TensorMatrix(dims, ones))
        assert rec.status == "exact"
        values.setdefault(pid, {}).setdefault(kind, {})[str(n)] = rec.value
        print("frontier", kind, n, pid, rec.value, flush=True)
    return {"values": values, "witnesses": witnesses}


def make_montecarlo(pf) -> dict:
    from scipy.stats import beta

    points = {}
    plan = [(pt, 20000 if pt[2] == 2 else 3000) for pt in workloads.SWEEP]
    plan += [((34, 2, 2), 20000), ((178, 2, 3), 60), ((119, 3, 2), 40)]
    for (k, ell, d), trials in plan:
        rep = pf.avoid_probability(k, ell, d, trials, REF_SEED)
        x, a = rep.avoid_count, checks.ALPHA
        p_lo = 0.0 if x == 0 else float(beta.ppf(a, x, trials - x + 1))
        p_hi = 1.0 if x == trials else float(beta.ppf(1 - a, x + 1, trials - x))
        points[f"{k},{ell},{d}"] = {"avoid_count": x, "trials": trials,
                                    "p_lo": p_lo, "p_hi": p_hi}
        print(k, ell, d, x, trials, flush=True)
    return {"seed": REF_SEED, "points": points}


def make_certify(pf) -> dict:
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        wl = workloads.certify(workloads.DEFAULT_SEED, Path(tmp), pf)
        frozen = {}
        for outcome in run.run_pass(wl, pf.cli.main):
            err = run.judge(outcome, {})
            if err is not None:
                raise SystemExit(f"{outcome.request.key}: {err}")
            frozen[outcome.request.key] = checks.digest(run.parse(outcome))
    return frozen


def main(argv) -> int:
    pf, _ = run.import_package()
    makers = {"extremal": make_extremal, "montecarlo": make_montecarlo,
              "certify": make_certify}
    names = {"certify": "certify_default_seed"}
    for what in argv or list(makers):
        data = makers[what](pf)
        path = workloads.REFERENCE_DIR / f"{names.get(what, what)}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print("wrote", path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
