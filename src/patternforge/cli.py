"""Command-line entry point.

Exit status contract, used by every subcommand:
  0  success / positive decision
  1  negative decision (pattern avoided, chain not strict, ...)
  2  usage error (bad flags, unreadable or malformed inputs)
  3  budget exhausted: the question is undecided
  4  verification failure (checked construction or stored record broke its
     own claims; indicates a bug or tampered data, not bad usage)

Tensor arguments accept a file path (text or JSON format, sniffed by the
leading '{') or the inline shorthand `allones:k1,k2,...`.  Randomized
subcommands require an explicit --seed; there is no ambient entropy.  The
PATTERNFORGE_CACHE environment variable supplies the record cache directory
when --cache-dir is not given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import construct as _construct
from . import probability as _prob
from .containment import GridWitness, contains_interval_minor, find_embedding
from .errors import (
    BudgetExceededError,
    PatternforgeError,
    StructureError,
    TensorParseError,
    VerificationError,
)
from .extremal import (
    SearchConfig,
    load_records,
    max_ones_avoiding,
    max_ones_avoiding_minor,
    ratio_sequence,
)
from .tensor import (
    TensorMatrix,
    all_ones,
    antidiagonal,
    contract,
    kronecker,
    parse_tensor,
    serialize_tensor,
    tensor_from_json,
    tensor_to_json,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_UNDECIDED = 3
EXIT_VERIFY = 4


def _load_tensor(source: str) -> TensorMatrix:
    if source.startswith("allones:"):
        toks = [tok for tok in source[len("allones:") :].split(",") if tok]
        if not toks:
            raise TensorParseError(f"empty extents in shorthand {source!r}")
        try:
            return all_ones(int(tok) for tok in toks)
        except ValueError:
            raise TensorParseError(f"non-integer extent in shorthand {source!r}") from None
    text = _read_text(source)
    if text.lstrip().startswith("{"):
        return tensor_from_json(text)
    return parse_tensor(text)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise StructureError(f"{path} is not UTF-8 text: {exc}") from None


def _load_witness(path: str) -> GridWitness:
    try:
        return GridWitness.from_json(json.loads(_read_text(path)))
    except json.JSONDecodeError as exc:
        raise StructureError(f"witness file {path}: {exc}") from None


def _seed64(value: str) -> int:
    seed = int(value)
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in unsigned 64 bits")
    return seed


def _int_list(value: str) -> list[int]:
    numbers = [int(tok) for tok in value.split(",") if tok]
    if not numbers:
        raise argparse.ArgumentTypeError(f"no integer in {value!r}")
    return numbers


def _positive(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"need a positive integer, got {number}")
    return number


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _tensor_lines(A: TensorMatrix) -> list[str]:
    return serialize_tensor(A).rstrip("\n").splitlines()


def _cache_dir(args) -> str | None:
    if getattr(args, "cache_dir", None):
        return args.cache_dir
    return os.environ.get("PATTERNFORGE_CACHE") or None


# -- subcommand handlers ------------------------------------------------------


def _cmd_contains(args) -> int:
    A = _load_tensor(args.a)
    P = _load_tensor(args.p)
    emb = find_embedding(A, P, node_budget=args.budget_nodes)
    if emb is None:
        _emit(args, {"contains": False}, ["avoids"])
        return EXIT_NEGATIVE
    payload = {
        "contains": True,
        "embedding": [{"pattern": list(pc), "host": list(hc)} for pc, hc in emb],
    }
    lines = ["contains"] + [
        f"  {' '.join(map(str, pc))} -> {' '.join(map(str, hc))}" for pc, hc in emb
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_minor(args) -> int:
    A = _load_tensor(args.a)
    B = _load_tensor(args.b)
    W = contains_interval_minor(A, B, node_budget=args.budget_nodes)
    if W is None:
        _emit(args, {"contains": False}, ["avoids"])
        return EXIT_NEGATIVE
    lines = ["contains"]
    for ax, intervals in enumerate(W.axes, start=1):
        body = " ".join(f"[{a},{b}]" for a, b in intervals)
        lines.append(f"  axis {ax}: {body}")
    _emit(args, {"contains": True, "witness": W.to_json()}, lines)
    return EXIT_OK


def _cmd_contract(args) -> int:
    A = _load_tensor(args.a)
    out = contract(A, args.axis, args.lo, args.hi)
    _emit(args, tensor_to_json(out), _tensor_lines(out))
    return EXIT_OK


def _cmd_kron(args) -> int:
    out = kronecker(_load_tensor(args.a), _load_tensor(args.b))
    _emit(args, tensor_to_json(out), _tensor_lines(out))
    return EXIT_OK


def _cmd_construct(args) -> int:
    kind = args.what
    if kind == "antidiag":
        out = antidiagonal(args.s, args.d)
    elif kind == "identity":
        out = _construct.identity_permutation(args.k, args.d).matrix
    elif kind == "random-perm":
        out = _construct.random_permutation(args.k, args.d, args.seed).matrix
    elif kind == "homo1":
        out = _construct.blowup_avoider(args.s, _load_tensor(args.n), args.k)
    elif kind == "scale":
        out = _construct.scale_avoider(args.s, _load_tensor(args.a), _load_tensor(args.p))
    else:  # corner-reduce
        perm = _construct.PermutationTensor(_load_tensor(args.p))
        red = _construct.corner_reduce(perm, _load_witness(args.witness))
        payload = {
            "matrix": tensor_to_json(red.matrix),
            "has_corner_one": red.has_corner_one,
            "keeps_smaller_minor": red.keeps_smaller_minor,
            "removed_boundary": [list(c) for c in red.removed_boundary],
            "removed_pivot": list(red.removed_pivot),
            "partition": red.partition.to_json(),
        }
        lines = _tensor_lines(red.matrix) + [
            f"has_corner_one: {red.has_corner_one}",
            f"keeps_smaller_minor: {red.keeps_smaller_minor}",
            f"removed_boundary: {' '.join(','.join(map(str, c)) for c in red.removed_boundary) or '-'}",
            f"removed_pivot: {','.join(map(str, red.removed_pivot))}",
        ]
        _emit(args, payload, lines)
        return EXIT_OK if red.checks_pass else EXIT_VERIFY
    _emit(args, tensor_to_json(out), _tensor_lines(out))
    return EXIT_OK


def _record_lines(rec) -> list[str]:
    return [
        f"kind: {rec.kind}",
        f"n: {rec.n}",
        f"d: {rec.d}",
        f"value: {rec.value}",
        f"status: {rec.status}",
        f"elapsed: {rec.elapsed:.6f}",
        "witness:",
    ] + ["  " + line for line in _tensor_lines(rec.witness)]


def _cmd_extremal(args) -> int:
    P = _load_tensor(args.pattern)
    cfg = SearchConfig(
        node_budget=args.budget_nodes,
        time_budget=args.budget_secs,
        cache_dir=_cache_dir(args),
    )
    run = max_ones_avoiding if args.kind == "f" else max_ones_avoiding_minor
    rec = run(args.n, P, cfg)
    _emit(args, rec.to_json(), _record_lines(rec))
    return EXIT_OK if rec.status == "exact" else EXIT_UNDECIDED


def _cmd_ratio_seq(args) -> int:
    if args.n_from > args.n_to:
        print(f"error: empty range of n: --n-from {args.n_from} > --n-to {args.n_to}",
              file=sys.stderr)
        return EXIT_USAGE
    P = _load_tensor(args.pattern)
    cfg = SearchConfig(
        node_budget=args.budget_nodes,
        time_budget=args.budget_secs,
        cache_dir=_cache_dir(args),
    )
    pts = ratio_sequence(P, range(args.n_from, args.n_to + 1), cfg, kind=args.kind)
    payload = {
        "kind": args.kind,
        "points": [
            {"n": p.n, "value": p.value, "ratio": p.ratio, "status": p.status}
            for p in pts
        ],
    }
    lines = ["n,value,ratio,status"] + [
        f"{p.n},{p.value},{p.ratio!r},{p.status}" for p in pts
    ]
    _emit(args, payload, lines)
    if any(p.status != "exact" for p in pts):
        return EXIT_UNDECIDED
    return EXIT_OK


def _estimate_lines(rep) -> list[str]:
    return [
        f"k: {rep.k}",
        f"ell: {rep.ell}",
        f"d: {rep.d}",
        f"trials: {rep.trials}",
        f"avoid_count: {rep.avoid_count}",
        f"undecided: {rep.undecided}",
        f"estimate: {rep.estimate!r}",
        f"conf99: {rep.conf99!r}",
        f"seed: {rep.seed}",
    ]


def _cmd_prob(args) -> int:
    what = args.what
    if what == "threshold":
        k = _prob.side_threshold(args.ell, args.d)
        _emit(args, {"ell": args.ell, "d": args.d, "threshold": k}, [str(k)])
        return EXIT_OK
    if what == "ell":
        rep = _prob.ell_from_k(args.k, args.d)
        lines = [
            f"ell: {rep.ell}",
            f"degenerate: {rep.degenerate}",
            f"threshold: {rep.threshold}",
            f"threshold_ok: {rep.threshold_ok}",
        ]
        _emit(args, rep.to_json(), lines)
        return EXIT_OK
    if what == "chain":
        rep = _prob.probability_chain(args.k, args.ell, args.d, require_strict=False)
        names = ("base", "halved", "exponential", "final")
        lines = [f"{n}: {v!r}" for n, v in zip(names, rep.values)] + [
            f"strict: {rep.strict}",
            f"final_bound_exact: {rep.final_bound_exact}",
        ]
        _emit(args, rep.to_json(), lines)
        return EXIT_OK if rep.strict else EXIT_NEGATIVE
    # estimate
    if args.sweep_k:
        reports = [
            _prob.avoid_probability(k, args.ell, args.d, args.trials, args.seed)
            for k in args.sweep_k
        ]
        payload = {"reports": [r.to_json() for r in reports]}
        lines = ["k,ell,d,trials,avoid_count,undecided,estimate,conf99,seed"] + [
            f"{r.k},{r.ell},{r.d},{r.trials},{r.avoid_count},{r.undecided},"
            f"{r.estimate!r},{r.conf99!r},{r.seed}"
            for r in reports
        ]
        _emit(args, payload, lines)
        return EXIT_OK
    rep = _prob.avoid_probability(args.k, args.ell, args.d, args.trials, args.seed)
    _emit(args, rep.to_json(), _estimate_lines(rep))
    return EXIT_OK


def _cmd_records(args) -> int:
    cache = _cache_dir(args)
    if cache is None:
        print(
            "error: no cache directory (use --cache-dir or PATTERNFORGE_CACHE)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    recs = load_records(cache)
    if args.what == "list":
        payload = {"records": [r.to_json() for r in recs]}
        lines = [
            f"{r.kind} n={r.n} d={r.d} value={r.value} status={r.status} "
            f"fingerprint={r.fingerprint}"
            for r in recs
        ] or ["(no records)"]
        _emit(args, payload, lines)
        return EXIT_OK
    # verify
    failures = []
    for i, rec in enumerate(recs):
        try:
            rec.verify()
        except VerificationError as exc:
            failures.append({"index": i, "error": str(exc)})
    payload = {"checked": len(recs), "failures": failures}
    lines = [f"checked: {len(recs)}"] + [
        f"FAIL record {f['index']}: {f['error']}" for f in failures
    ]
    if not failures:
        lines.append("all records verified")
    _emit(args, payload, lines)
    return EXIT_OK if not failures else EXIT_VERIFY


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patternforge",
        description="Exact workbench for pattern avoidance in d-dimensional 0-1 matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument(
            "--threads",
            type=_positive,
            default=1,
            help="accepted for compatibility; work runs on one thread; "
            "output is identical for any value",
        )
        return p

    p = common(sub.add_parser("contains", help="ordinary submatrix containment"))
    p.add_argument("--a", required=True, help="host tensor (file or allones:...)")
    p.add_argument("--p", required=True, help="pattern tensor")
    p.add_argument("--budget-nodes", type=_positive, default=None)
    p.set_defaults(func=_cmd_contains)

    p = common(sub.add_parser("minor", help="interval-minor containment with witness"))
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--budget-nodes", type=_positive, default=None)
    p.set_defaults(func=_cmd_minor)

    p = common(sub.add_parser("contract", help="contract consecutive cross sections"))
    p.add_argument("--a", required=True)
    p.add_argument("--axis", type=int, required=True)
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.set_defaults(func=_cmd_contract)

    p = common(sub.add_parser("kron", help="Kronecker product of two tensors"))
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=_cmd_kron)

    pc = sub.add_parser("construct", help="build the named matrix construction")
    csub = pc.add_subparsers(dest="what", required=True)

    p = common(csub.add_parser("antidiag"))
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_construct)

    p = common(csub.add_parser("identity"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_construct)

    p = common(csub.add_parser("random-perm"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=_seed64, required=True)
    p.set_defaults(func=_cmd_construct)

    p = common(csub.add_parser("homo1", help="antidiagonal blow-up avoider"))
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", required=True, help="inner tensor file")
    p.add_argument("--k", type=int, required=True, help="all-ones side to avoid")
    p.set_defaults(func=_cmd_construct)

    p = common(csub.add_parser("scale", help="corner-oriented scaling avoider"))
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--a", required=True, help="avoider tensor file")
    p.add_argument("--p", required=True, help="pattern tensor file")
    p.set_defaults(func=_cmd_construct)

    p = common(csub.add_parser("corner-reduce"))
    p.add_argument("--p", required=True, help="permutation tensor file")
    p.add_argument("--witness", required=True, help="grid witness JSON file")
    p.set_defaults(func=_cmd_construct)

    pe = sub.add_parser("extremal", help="exact extremal values by search")
    esub = pe.add_subparsers(dest="kind", required=True)
    for kind, blurb in (("f", "ordinary containment"), ("m", "interval minor")):
        p = common(esub.add_parser(kind, help=f"max ones avoiding ({blurb})"))
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--pattern", required=True)
        p.add_argument("--budget-nodes", type=_positive, default=None)
        p.add_argument("--budget-secs", type=float, default=None)
        p.add_argument("--cache-dir", default=None)
        p.set_defaults(func=_cmd_extremal)

    p = common(sub.add_parser("ratio-seq", help="value / n^(d-1) over a range of n"))
    p.add_argument("--pattern", required=True)
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    p.add_argument("--kind", choices=("f", "m"), default="f")
    p.add_argument("--budget-nodes", type=_positive, default=None)
    p.add_argument("--budget-secs", type=float, default=None)
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(func=_cmd_ratio_seq)

    pp = sub.add_parser("prob", help="threshold formulas and Monte Carlo")
    psub = pp.add_subparsers(dest="what", required=True)

    p = common(psub.add_parser("estimate"))
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--k", type=int)
    g.add_argument(
        "--sweep-k", type=_int_list, default=None, help="comma-separated k values (CSV out)"
    )
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=_seed64, required=True)
    p.set_defaults(func=_cmd_prob)

    p = common(psub.add_parser("threshold"))
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_prob)

    p = common(psub.add_parser("ell"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_prob)

    p = common(psub.add_parser("chain"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_prob)

    pr = sub.add_parser("records", help="inspect the extremal record cache")
    rsub = pr.add_subparsers(dest="what", required=True)
    for what in ("list", "verify"):
        p = common(rsub.add_parser(what))
        p.add_argument("--cache-dir", default=None)
        p.set_defaults(func=_cmd_records)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (PatternforgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
