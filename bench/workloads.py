"""The four workloads: how each builds its inputs from the seed, which CLI
requests one pass sends, and how each answer is checked.

A pass is a fixed list of requests.  The seed decides the random instances
and the order; the make-up of a pass (how many requests of each family,
and their sizes) is the same for every seed, so figures from different
seeds measure the same amount of work.  See README.md for why each
workload exists and how its requests are mixed.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 1

Coord = tuple


@dataclass
class Request:
    """One CLI invocation.  `check(code, payload)` returns an error message
    or None; `follow(payload)` may build a request that uses this one's
    answer (it is sent next, in the same pass)."""

    key: str  # stable name, used for frozen answers and metadata
    family: str
    argv: list[str]
    units: int = 1
    check: Callable[[int, dict | None], str | None] | None = None
    follow: Callable[[dict], "Request | None"] | None = None


@dataclass
class Workload:
    name: str
    unit: str  # what `throughput` counts per second
    requests: list[Request]
    start_pass: Callable[[], None] = lambda: None
    frozen: dict = field(default_factory=dict)  # request key -> answer digest


# ---------------------------------------------------------------------------
# shared input helpers (no patternforge code: the program only sees files)
# ---------------------------------------------------------------------------


def tensor_text(dims, ones) -> str:
    lines = ["dims: " + " ".join(map(str, dims))]
    lines += [" ".join(map(str, c)) for c in sorted(ones)]
    return "\n".join(lines) + "\n"


def write_tensor(path: Path, dims, ones) -> str:
    path.write_text(tensor_text(dims, ones))
    return str(path)


def random_perm(rng: random.Random, k: int, d: int) -> list[Coord]:
    """Ones of a uniform random d-dimensional permutation matrix of side k."""
    perms = [rng.sample(range(1, k + 1), k) for _ in range(d - 1)]
    return [tuple([i] + [p[i - 1] for p in perms]) for i in range(1, k + 1)]


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / name).read_text())


def _symmetries(dims, ones):
    """The distinct images of a 2-D pattern under the eight symmetries of
    the square, as (dims, sorted ones, transform) triples."""
    out = {}
    for tr in (False, True):
        for fr in (False, True):
            for fc in (False, True):
                def f(c, dims=dims, tr=tr, fr=fr, fc=fc):
                    r, s = (c[1], c[0]) if tr else (c[0], c[1])
                    R, S = (dims[1], dims[0]) if tr else (dims[0], dims[1])
                    return ((R + 1 - r) if fr else r, (S + 1 - s) if fc else s)

                R, S = (dims[1], dims[0]) if tr else tuple(dims)
                img = tuple(sorted(f(c) for c in ones))
                out.setdefault(((R, S), img), (tr, fr, fc))
    return [(d, o, t) for (d, o), t in sorted(out.items())]


def _apply(transform, n: int, ones):
    """Apply a pattern symmetry to an n x n witness."""
    tr, fr, fc = transform
    out = []
    for c in ones:
        r, s = (c[1], c[0]) if tr else (c[0], c[1])
        out.append(((n + 1 - r) if fr else r, (n + 1 - s) if fc else s))
    return sorted(out)


def pattern_classes() -> list[tuple[str, tuple, list]]:
    """The 20 classes of 2-D 0-1 patterns with at most four ones, no empty
    row or column, extents between 2x2 and 3x3, up to the symmetries of the
    square.  Returned as (id, dims, ones) of a canonical representative."""
    cells = [(r, c) for r in range(1, 4) for c in range(1, 4)]
    reps = {}
    for m in range(2, 5):
        for ones in itertools.combinations(cells, m):
            R = max(r for r, _ in ones)
            C = max(c for _, c in ones)
            if R < 2 or C < 2:
                continue
            if {r for r, _ in ones} != set(range(1, R + 1)):
                continue
            if {c for _, c in ones} != set(range(1, C + 1)):
                continue
            canon = min((d, o) for d, o, _ in _symmetries((R, C), ones))
            reps[canon] = canon
    out = []
    for dims, ones in sorted(reps, key=lambda k: (len(k[1]), k)):
        pid = f"{dims[0]}x{dims[1]}:" + ",".join(f"{r}{c}" for r, c in ones)
        out.append((pid, dims, list(ones)))
    return out


def _extremal_check(kind: str, n: int, d: int, pattern, kdims, value: int,
                    stored: dict | None = None):
    """Check an `extremal` answer: exact status, the frozen value, the
    closed forms for I2 and J2, and a witness that really avoids."""

    def check(code: int, payload: dict | None) -> str | None:
        if code != 0 or payload is None:
            return f"exit {code}"
        if stored is not None:
            return None if payload == stored else "cache hit differs from the stored record"
        if payload.get("status") != "exact":
            return f"status {payload.get('status')!r}"
        if (payload["kind"], payload["n"], payload["d"]) != (kind, n, d):
            return "answer is for another question"
        if payload["value"] != value:
            return f"value {payload['value']}, expected {value}"
        pset = sorted(map(tuple, pattern))
        if d == 2 and pset == [(1, 1), (2, 2)] and value != 2 * n - 1:
            return "f(n, I2) != 2n - 1"
        if kind == "f" and pset == [(1, 1), (1, 2), (2, 1), (2, 2)]:
            if value != checks.ZARANKIEWICZ_2[n]:
                return "f(n, J2) != z(n; 2)"
        wit = payload["witness"]
        ones = [tuple(c) for c in wit["ones"]]
        if tuple(wit["dims"]) != (n,) * d or len(ones) != value:
            return "witness shape or ones count is wrong"
        decide = checks.contains_literal if kind == "f" else checks.minor_literal
        if decide(ones, (n,) * d, pattern, kdims):
            return "witness contains the pattern"
        return None

    return check


def _extremal_argv(kind, n, pfile, cache) -> list[str]:
    return ["extremal", kind, "--n", str(n), "--pattern", pfile,
            "--cache-dir", str(cache), "--format", "json"]


# ---------------------------------------------------------------------------
# extremal-table
# ---------------------------------------------------------------------------

TABLE_N = (2, 3, 4)
# frontier points: (kind, n, pattern id); "I2x3" is the 2x2x2 identity
FRONTIER = (
    ("f", 6, "2x2:11,22"),
    ("f", 5, "2x2:11,22"),
    ("f", 5, "3x3:11,13,22,31"),
    ("f", 3, "I2x3"),
    ("m", 5, "2x2:11,12,21,22"),
)
I2_3D = ((2, 2, 2), [(1, 1, 1), (2, 2, 2)])


def extremal_table(seed: int, work: Path, pf) -> Workload:
    ref = load_reference("extremal.json")
    classes = {pid: (dims, ones) for pid, dims, ones in pattern_classes()}
    classes["I2x3"] = I2_3D
    files = {}
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    for pid, (dims, ones) in classes.items():
        files[pid] = write_tensor(inputs / f"p{len(files)}.tsr", dims, ones)
    cache = work / "cache"
    points = [(k, n, pid) for pid in classes if pid != "I2x3"
              for k in "fm" for n in TABLE_N] + list(FRONTIER)
    requests = []
    for kind, n, pid in points:
        dims, ones = classes[pid]
        value = ref["values"][pid][kind][str(n)]
        requests.append(Request(
            key=f"{kind}({n}, {pid})",
            family="frontier" if (kind, n, pid) in FRONTIER else f"{kind}{n}",
            argv=_extremal_argv(kind, n, files[pid], cache),
            check=_extremal_check(kind, n, len(dims), ones, dims, value),
        ))
    random.Random(f"extremal-table:{seed}").shuffle(requests)

    def start_pass():
        shutil.rmtree(cache, ignore_errors=True)
        cache.mkdir()

    return Workload("extremal-table", "exact values", requests, start_pass)


# ---------------------------------------------------------------------------
# cache-replay
# ---------------------------------------------------------------------------

# one pass is exactly 100 requests, the fewest that leave ten latency
# samples beyond p90, so that a run holds as many passes, and each request
# as many repetitions, as it can.  A hit and an n = 2 miss cost about the
# same, so p90 would fall on whichever of them had the unluckiest
# repetitions; with 14 verifies (which also check every witness) p90 falls
# inside the verify requests instead.
REPLAY_HITS = 72
REPLAY_MISSES = 14
REPLAY_VERIFIES = 14
MISS_N = 2
# 188 records: a hit is mostly the parse of the whole file, and short
# enough that a run repeats every request twenty or more times
STORED_N = 4


def cache_replay(seed: int, work: Path, pf) -> Workload:
    ref = load_reference("extremal.json")
    rng = random.Random(f"cache-replay:{seed}")
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    cache = work / "cache"
    cache.mkdir()
    fingerprint = pf.SearchConfig().fingerprint()
    keys = []  # (kind, n, dims, ones, value, witness ones, pattern file)
    for pid, dims, ones in pattern_classes():
        for vdims, vones, tf in _symmetries(dims, ones):
            pfile = write_tensor(inputs / f"p{len(keys)}.tsr", vdims, vones)
            for kind in "fm":
                for n in TABLE_N:
                    wit = ref["witnesses"][pid][kind][str(n)]
                    keys.append((kind, n, vdims, vones, ref["values"][pid][kind][str(n)],
                                 _apply(tf, n, map(tuple, wit)), pfile))
    # the cache holds every key with n = STORED_N; misses come from
    # n = MISS_N, where every search costs about the same (a fraction of a
    # parse of the cache), unlike n = 3, where the few keys a seed picked
    # would set p90
    small = [i for i, k in enumerate(keys) if k[1] == MISS_N]
    missing = set(rng.sample(small, REPLAY_MISSES))
    stored = {}
    for i, (kind, n, vdims, vones, value, wit, _) in enumerate(keys):
        if n != STORED_N:
            continue
        rec = pf.ExtremalRecord(
            kind=kind, n=n, d=2, pattern=pf.TensorMatrix(vdims, vones), value=value,
            witness=pf.TensorMatrix((n, n), wit), status="exact", elapsed=0.0,
            fingerprint=fingerprint,
        )
        pf.append_record(cache, rec)
        stored[i] = rec.to_json()
    filled = pf.records_path(cache).read_bytes()

    def request_for(i: int, family: str) -> Request:
        kind, n, vdims, vones, value, _, pfile = keys[i]
        return Request(
            key=f"{family} {kind}({n}, {vdims}:{vones})", family=family,
            argv=_extremal_argv(kind, n, pfile, cache),
            check=_extremal_check(kind, n, 2, vones, vdims, value, stored.get(i)),
        )

    requests = [request_for(i, "hit") for i in rng.sample(sorted(stored), REPLAY_HITS)]
    requests += [request_for(i, "miss") for i in sorted(missing)]
    requests += [
        Request(key=f"verify#{j}", family="verify",
                argv=["records", "verify", "--cache-dir", str(cache), "--format", "json"])
        for j in range(REPLAY_VERIFIES)
    ]
    rng.shuffle(requests)
    # a verify pass checks every record present when it runs: the filled
    # ones plus the misses appended before it in this pass
    appended = 0
    for req in requests:
        if req.family == "miss":
            appended += 1
        elif req.family == "verify":
            req.check = _verify_check(len(stored) + appended)

    def start_pass():
        pf.records_path(cache).write_bytes(filled)

    return Workload("cache-replay", "requests", requests, start_pass)


def _verify_check(expected: int):
    def check(code: int, payload: dict | None) -> str | None:
        if code != 0 or payload is None:
            return f"exit {code}"
        if payload["failures"]:
            return f"records verify reports {len(payload['failures'])} failures"
        if payload["checked"] != expected:
            return f"checked {payload['checked']} records, expected {expected}"
        return None

    return check


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------

SWEEP = [(k, 2, 2) for k in (2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 20, 26, 34)] + [
    (k, 2, 3) for k in (2, 4, 6, 8, 10, 12, 14, 16, 18, 20)
]
# per d: trials per sweep request, and how many times each point is sent;
# the d=2 points make up most of the pass so that p50 sits inside them
SWEEP_TRIALS = {2: 50, 3: 10}
SWEEP_REPEATS = {2: 5, 3: 1}
# (k, ell, d), requests per pass, trials per request; the dense-decider
# points make up the 13 slowest requests of a 100-request pass, so p90 sits
# inside the (178, 2, 3) family.  A threshold request needs at least 2 trials
# (3 at ell = 3): with fewer, one avoiding trial would push the estimate past
# 1/ell and fail the threshold check.
THRESHOLDS = (((34, 2, 2), 12, 50), ((119, 3, 2), 1, 3), ((178, 2, 3), 12, 2))
# one thread: the pool's second thread would compete with the host's other
# tenants for the second core, and its timings would follow their load
MC_THREADS = 1


def montecarlo(seed: int, work: Path, pf) -> Workload:
    ref = load_reference("montecarlo.json")["points"]
    rng = random.Random(f"montecarlo:{seed}")
    plan = [(pt, SWEEP_TRIALS[pt[2]], f"sweep-d{pt[2]}")
            for pt in SWEEP for _ in range(SWEEP_REPEATS[pt[2]])]
    for pt, count, trials in THRESHOLDS:
        plan += [(pt, trials, "threshold-%d,%d,%d" % pt)] * count
    requests = []
    for j, ((k, ell, d), trials, family) in enumerate(plan):
        req_seed = rng.getrandbits(63)
        requests.append(Request(
            key=f"estimate#{j} k={k} ell={ell} d={d}", family=family,
            argv=["prob", "estimate", "--k", str(k), "--ell", str(ell), "--d", str(d),
                  "--trials", str(trials), "--seed", str(req_seed),
                  "--threads", str(MC_THREADS), "--format", "json"],
            units=trials,
            check=_estimate_check(k, ell, d, trials, family.startswith("threshold"),
                                  ref[f"{k},{ell},{d}"]),
        ))
    rng.shuffle(requests)
    return Workload("montecarlo", "trials", requests)


def _estimate_check(k, ell, d, trials, at_threshold, ref):
    def check(code: int, payload: dict | None) -> str | None:
        if code != 0 or payload is None:
            return f"exit {code}"
        if (payload["k"], payload["ell"], payload["d"], payload["trials"]) != (k, ell, d, trials):
            return "answer is for another question"
        if payload["undecided"]:
            return f"{payload['undecided']} undecided trials"
        count = payload["avoid_count"]
        if payload["estimate"] != count / trials:
            return "estimate is not avoid_count / trials"
        if k < ell**d and count != trials:
            return f"k < ell^d must always avoid, got {count}/{trials}"
        if at_threshold and payload["estimate"] > 1 / ell:
            return f"estimate {payload['estimate']} above 1/ell at the threshold"
        return checks.binomial_error(count, trials, ref["p_lo"], ref["p_hi"])

    return check


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

# all-ones minor families: (family, host sides, ell, d, positives, negatives);
# the outcome mix is fixed per pass by the literal cut scan at set-up
ALLONES_FAMILIES = (
    ("J2", (10, 11, 12), 2, 2, 45, 0),
    ("J3", (9,), 3, 2, 12, 18),
    ("J2d3", (8,), 2, 3, 3, 18),
)
# 4-point permutation targets; hosts of side PERM4_SIDE that contain them
PERM4_TARGETS = ((2, 4, 1, 3), (3, 1, 4, 2), (1, 3, 2, 4), (2, 1, 4, 3))
PERM4_SIDE = 8
PERM4_HOSTS = 36
CONTAINS_HOSTS = 36  # each sends j = LIS and j = LIS + 1
CONTAINS_SIDES = (30, 35)
HOMO1 = 10
SCALE = 10


def certify(seed: int, work: Path, pf) -> Workload:
    rng = random.Random(f"certify:{seed}")
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    count = itertools.count()

    def new_path(suffix: str) -> Path:
        return inputs / f"t{next(count)}{suffix}"

    def tensor_file(dims, ones) -> str:
        return write_tensor(new_path(".tsr"), dims, ones)

    requests: list[Request] = []
    for family, ks, ell, d, n_pos, n_neg in ALLONES_FAMILIES:
        want = {True: n_pos, False: n_neg}
        kdims = (ell,) * d
        target = [c for c in itertools.product(range(1, ell + 1), repeat=d)]
        j = 0
        while want[True] or want[False]:
            k = ks[j % len(ks)]
            ones = random_perm(rng, k, d)
            positive = checks.minor_literal(ones, (k,) * d, target, kdims)
            if not want[positive]:
                continue
            want[positive] -= 1
            j += 1
            host = tensor_file((k,) * d, ones)
            requests.append(_minor_request(
                f"{family} k={k} #{j}", family, host, (k,) * d, ones,
                "allones:" + ",".join(map(str, kdims)), target, kdims, positive,
                corner_path=new_path if family == "J2" else None,
            ))
    side = (PERM4_SIDE,) * 2
    for q in PERM4_TARGETS:
        pattern = [(i + 1, v) for i, v in enumerate(q)]
        pfile = tensor_file((4, 4), pattern)
        h = 0
        while h < PERM4_HOSTS // len(PERM4_TARGETS):
            ones = random_perm(rng, PERM4_SIDE, 2)
            if not checks.minor_literal(ones, side, pattern, (4, 4)):
                continue
            h += 1
            requests.append(_minor_request(
                f"P{''.join(map(str, q))} #{h}", "perm4", tensor_file(side, ones),
                side, ones, pfile, pattern, (4, 4), True,
            ))
    for h in range(CONTAINS_HOSTS):
        k = rng.randint(*CONTAINS_SIDES)
        ones = random_perm(rng, k, 2)
        lis = checks.lis_length([c[1] for c in sorted(ones)])
        host = tensor_file((k, k), ones)
        for j in (lis, lis + 1):
            ident = [(i, i) for i in range(1, j + 1)]
            requests.append(Request(
                key=f"I{j} in perm k={k} #{h}", family="contains",
                argv=["contains", "--a", host, "--p", tensor_file((j, j), ident),
                      "--format", "json"],
                check=_contains_check(ones, (k, k), ident, (j, j), j <= lis),
            ))
    # self-verifying constructions, fixed inputs
    n_file = tensor_file((2, 2), [(1, 1), (2, 2)])  # avoids J2 as a minor
    for h in range(HOMO1):
        requests.append(Request(
            key=f"homo1 s=8 #{h}", family="homo1",
            argv=["construct", "homo1", "--s", "8", "--n", n_file, "--k", "3",
                  "--format", "json"],
            check=_construction_check((16, 16), 16, avoid_side=3),
        ))
    a_file = tensor_file((3, 3, 3), _antidiagonal(3, 3))  # avoids the 3-D I2
    p_file = tensor_file(*I2_3D)
    for h in range(SCALE):
        requests.append(Request(
            key=f"scale d=3 s=6 #{h}", family="scale",
            argv=["construct", "scale", "--s", "6", "--a", a_file, "--p", p_file,
                  "--format", "json"],
            check=_construction_check((18, 18, 18), 21 * 6),
        ))
    rng.shuffle(requests)
    return Workload("certify", "queries", requests)


def _antidiagonal(s: int, d: int) -> list[Coord]:
    return [c for c in itertools.product(range(1, s + 1), repeat=d) if sum(c) == s + d - 1]


def _minor_request(key, family, host_file, dims, ones, target_arg, target, kdims,
                   positive, corner_path=None) -> Request:
    """A `minor` request; with `corner_path`, a positive answer is followed by
    `construct corner-reduce` on the witness it returned."""
    def check(code: int, payload: dict | None) -> str | None:
        if payload is None or code not in (0, 1):
            return f"exit {code}"
        if (code == 0) != positive or payload["contains"] != positive:
            return f"decision {payload['contains']}, the cut scan says {positive}"
        if positive:
            return checks.grid_witness_error(ones, dims, target, kdims,
                                             payload["witness"]["axes"])
        return None

    follow = None
    if corner_path is not None:
        def follow(payload: dict) -> Request | None:
            if not payload.get("contains"):
                return None
            wfile = corner_path(".json")
            wfile.write_text(json.dumps(payload["witness"]))
            return Request(
                key=f"corner-reduce {key}", family="corner",
                argv=["construct", "corner-reduce", "--p", host_file,
                      "--witness", str(wfile), "--format", "json"],
                check=_corner_check(len(kdims), kdims[0]),
            )

    return Request(key=key, family=family,
                   argv=["minor", "--a", host_file, "--b", target_arg, "--format", "json"],
                   check=check, follow=follow)


def _contains_check(ones, dims, pattern, kdims, positive: bool):
    def check(code: int, payload: dict | None) -> str | None:
        if payload is None or code not in (0, 1):
            return f"exit {code}"
        if payload["contains"] != positive or (code == 0) != positive:
            return f"decision {payload['contains']}, the LIS says {positive}"
        if positive:
            pairs = [(e["pattern"], e["host"]) for e in payload["embedding"]]
            return checks.embedding_error(ones, dims, pattern, kdims, pairs)
        return None

    return check


def _construction_check(dims, ones_count, avoid_side=None):
    """Shape and size of a checked construction, and (when given) that it
    avoids the all-ones pattern of side `avoid_side` by the cut scan."""

    def check(code: int, payload: dict | None) -> str | None:
        if code != 0 or payload is None:
            return f"exit {code}"
        if tuple(payload["dims"]) != dims or len(payload["ones"]) != ones_count:
            return "construction has the wrong shape or size"
        if avoid_side is not None:
            d = len(dims)
            target = list(itertools.product(range(1, avoid_side + 1), repeat=d))
            if checks.minor_literal(payload["ones"], dims, target, (avoid_side,) * d):
                return "construction contains the pattern it must avoid"
        return None

    return check


def _corner_check(d: int, ell: int):
    def check(code: int, payload: dict | None) -> str | None:
        if payload is None or code not in (0, 4):
            return f"exit {code}"
        m = payload["matrix"]
        ones = [tuple(c) for c in m["ones"]]
        corner = checks.has_corner_one(ones, m["dims"])
        if payload["has_corner_one"] != corner:
            return "has_corner_one disagrees with the matrix"
        target = list(itertools.product(range(1, ell), repeat=d))
        keeps = checks.minor_literal(ones, m["dims"], target, (ell - 1,) * d)
        if payload["keeps_smaller_minor"] != keeps:
            return "keeps_smaller_minor disagrees with the cut scan"
        if (code == 0) != (corner and keeps):
            return f"exit {code} does not match the reported checks"
        return None

    return check


BUILDERS = {
    "extremal-table": extremal_table,
    "cache-replay": cache_replay,
    "montecarlo": montecarlo,
    "certify": certify,
}


def frozen_answers(name: str, seed: int) -> dict:
    """Answer digests frozen for the default seed (certify only: its answers
    are lex-least witnesses, first embeddings and deterministic
    constructions, all defined mathematically)."""
    if name == "certify" and seed == DEFAULT_SEED:
        return load_reference("certify_default_seed.json")
    return {}
