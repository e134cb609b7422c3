"""Command-line interface: exit statuses, output formats, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from patternforge import (
    GridWitness,
    TensorMatrix,
    all_ones,
    antidiagonal,
    identity_permutation,
    kronecker,
    serialize_tensor,
    tensor_to_json,
    verify_witness,
)
from patternforge import extremal
from patternforge.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def files(tmp_path):
    """Tensor files used across tests: 3x3 antidiagonal host, 2x2 identity."""
    a = tmp_path / "A.tsr"
    a.write_text(serialize_tensor(antidiagonal(3, 2)))
    p = tmp_path / "P.tsr"
    p.write_text(serialize_tensor(identity_permutation(2, 2).matrix))
    pj = tmp_path / "P.json"
    pj.write_text(json.dumps(tensor_to_json(identity_permutation(2, 2).matrix)))
    return {"a": str(a), "p": str(p), "pjson": str(pj), "dir": tmp_path}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


# -- decisions ----------------------------------------------------------------


def test_contains_negative_exits_1(files, capsys):
    code, out = run(capsys, ["contains", "--a", files["a"], "--p", files["p"]])
    assert code == 1
    assert out == "avoids\n"


def test_contains_positive_prints_embedding(files, capsys):
    code, out = run(capsys, ["contains", "--a", "allones:3,3", "--p", files["p"]])
    assert code == 0
    assert out.splitlines()[0] == "contains"
    assert "1 1 -> 1 1" in out


def test_contains_json_embedding_is_valid(files, capsys):
    code, out = run(
        capsys,
        ["contains", "--a", "allones:3,3", "--p", files["pjson"], "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["contains"] is True
    for pair in data["embedding"]:
        assert len(pair["pattern"]) == len(pair["host"]) == 2


def test_minor_avoids_on_antidiagonal(files, capsys):
    code, out = run(capsys, ["minor", "--a", files["a"], "--b", "allones:2,2"])
    assert code == 1
    assert out == "avoids\n"


def test_minor_witness_round_trips(files, capsys):
    code, out = run(
        capsys,
        ["minor", "--a", "allones:3,3", "--b", "allones:2,2", "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    W = GridWitness.from_json(data["witness"])
    assert verify_witness(TensorMatrix((3, 3), [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]),
                          TensorMatrix((2, 2), [(1, 1), (1, 2), (2, 1), (2, 2)]), W)


def test_minor_budget_exhaustion_exits_3(capsys):
    code, _ = run(
        capsys,
        ["minor", "--a", "allones:4,4", "--b", "allones:2,3", "--budget-nodes", "1"],
    )
    assert code == 3


def test_minor_budget_counts_interval_ends(tmp_path, files, capsys):
    # one cut sweep shows that antidiagonal(6, 2) avoids the 2x2 identity
    host = tmp_path / "anti6.tsr"
    host.write_text(serialize_tensor(antidiagonal(6, 2)))
    code, _ = run(
        capsys, ["minor", "--a", str(host), "--b", files["p"], "--budget-nodes", "100"]
    )
    assert code == 1


# -- transforms ---------------------------------------------------------------


def test_contract_matches_library(capsys):
    code, out = run(
        capsys,
        ["contract", "--a", "allones:2,3", "--axis", "2", "--lo", "1", "--hi", "3"],
    )
    assert code == 0
    assert out.splitlines()[0] == "dims: 2 1"


def test_kron_matches_library(files, capsys):
    code, out = run(
        capsys, ["kron", "--a", files["a"], "--b", files["a"], "--format", "json"]
    )
    assert code == 0
    got = json.loads(out)
    want = tensor_to_json(kronecker(antidiagonal(3, 2), antidiagonal(3, 2)))
    assert got == want


# -- constructions ------------------------------------------------------------


def test_construct_antidiag_text(capsys):
    code, out = run(capsys, ["construct", "antidiag", "--s", "2", "--d", "3"])
    assert code == 0
    assert out == "dims: 2 2 2\n1 1 2\n1 2 1\n2 1 1\n"


def test_construct_random_perm_is_seed_deterministic(capsys):
    _, first = run(capsys, ["construct", "random-perm", "--k", "5", "--d", "2", "--seed", "3"])
    _, second = run(capsys, ["construct", "random-perm", "--k", "5", "--d", "2", "--seed", "3"])
    assert first == second
    _, other = run(capsys, ["construct", "random-perm", "--k", "5", "--d", "2", "--seed", "4"])
    assert other != first


def test_construct_random_perm_requires_seed(capsys):
    code = main(["construct", "random-perm", "--k", "5", "--d", "2"])
    capsys.readouterr()
    assert code == 2


def test_construct_homo1_via_files(files, capsys):
    code, out = run(
        capsys,
        ["construct", "homo1", "--s", "2", "--n", files["a"], "--k", "3", "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["dims"] == [6, 6]
    assert len(data["ones"]) == 6


def test_construct_homo1_precondition_exits_2(capsys):
    # an all-ones inner matrix contains every smaller all-ones minor
    code = main(["construct", "homo1", "--s", "2", "--n", "allones:2,2", "--k", "2"])
    capsys.readouterr()
    assert code == 2


def test_construct_scale(files, tmp_path, capsys):
    one = tmp_path / "one.tsr"
    one.write_text(serialize_tensor(TensorMatrix((1, 1), [(1, 1)])))
    code, out = run(
        capsys, ["construct", "scale", "--s", "3", "--a", str(one), "--p", files["p"]]
    )
    assert code == 0
    assert out == "dims: 3 3\n1 3\n2 2\n3 1\n"


def test_construct_corner_reduce(tmp_path, capsys):
    perm = tmp_path / "cyc.tsr"
    perm.write_text(
        serialize_tensor(TensorMatrix((4, 4), [(1, 2), (2, 4), (3, 1), (4, 3)]))
    )
    wit = tmp_path / "w.json"
    wit.write_text(json.dumps(GridWitness([[(1, 2), (3, 4)], [(1, 2), (3, 4)]]).to_json()))
    code, out = run(
        capsys,
        ["construct", "corner-reduce", "--p", str(perm), "--witness", str(wit), "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["has_corner_one"] and data["keeps_smaller_minor"]
    assert data["removed_pivot"] == [4, 3]
    assert data["matrix"]["dims"] == [1, 1]


# -- extremal and records -----------------------------------------------------


def test_extremal_exact_and_cache(files, tmp_path, capsys):
    cache = tmp_path / "cache"
    code, out = run(
        capsys,
        ["extremal", "f", "--n", "4", "--pattern", files["p"],
         "--cache-dir", str(cache), "--format", "json"],
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == 7 and rec["status"] == "exact"
    # second run answers from the cache with the same payload
    code2, out2 = run(
        capsys,
        ["extremal", "f", "--n", "4", "--pattern", files["p"],
         "--cache-dir", str(cache), "--format", "json"],
    )
    assert code2 == 0
    assert json.loads(out2)["value"] == 7


def test_extremal_budget_exits_3(files, capsys):
    code, out = run(
        capsys,
        ["extremal", "f", "--n", "5", "--pattern", files["p"],
         "--budget-nodes", "3", "--format", "json"],
    )
    assert code == 3
    assert json.loads(out)["status"] == "lower-bound-only"


@pytest.mark.parametrize("kind, n, pattern, value", [
    ("f", 32, identity_permutation(2, 2).matrix, 63),
    ("f", 10, identity_permutation(2, 3).matrix, 271),
    ("m", 32, all_ones((2, 2)), 63),
], ids=["f-I2-n32", "f-I2-d3-n10", "m-J2-n32"])
def test_budgeted_search_on_a_thousand_cells_exits_3(tmp_path, capsys, kind, n, pattern, value):
    p = tmp_path / "P.tsr"
    p.write_text(serialize_tensor(pattern))
    code, out = run(
        capsys,
        ["extremal", kind, "--n", str(n), "--pattern", str(p),
         "--budget-nodes", "3000", "--format", "json"],
    )
    assert code == 3
    rec = json.loads(out)
    assert (rec["value"], rec["status"]) == (value, "lower-bound-only")


def test_contains_on_a_pattern_with_1100_ones_exits_0(tmp_path, capsys):
    p = tmp_path / "I1100.tsr"
    p.write_text(serialize_tensor(identity_permutation(1100, 2).matrix))
    code, out = run(capsys, ["contains", "--a", str(p), "--p", str(p)])
    assert code == 0
    assert out.startswith("contains")


def test_records_list_and_verify(files, tmp_path, capsys):
    cache = tmp_path / "cache"
    run(capsys, ["extremal", "m", "--n", "3", "--pattern", "allones:2,2",
                 "--cache-dir", str(cache)])
    code, out = run(capsys, ["records", "list", "--cache-dir", str(cache), "--format", "json"])
    assert code == 0
    assert len(json.loads(out)["records"]) == 1
    code, out = run(capsys, ["records", "verify", "--cache-dir", str(cache)])
    assert code == 0
    assert "all records verified" in out


def test_records_verify_flags_tampering(files, tmp_path, capsys):
    cache = tmp_path / "cache"
    run(capsys, ["extremal", "f", "--n", "3", "--pattern", files["p"],
                 "--cache-dir", str(cache)])
    path = cache / "records.jsonl"
    rec = json.loads(path.read_text())
    rec["value"] += 1
    path.write_text(json.dumps(rec) + "\n")
    code, out = run(capsys, ["records", "verify", "--cache-dir", str(cache), "--format", "json"])
    assert code == 4
    assert json.loads(out)["failures"]
    code = main(["extremal", "f", "--n", "3", "--pattern", files["p"],
                 "--cache-dir", str(cache)])
    assert "verification failure" in capsys.readouterr().err
    assert code == 4  # a cache hit is checked before it is served


@pytest.mark.parametrize(
    "argv",
    [["extremal", "f", "--n", "3"], ["extremal", "m", "--n", "3"],
     ["ratio-seq", "--n-from", "1", "--n-to", "2"], ["records", "list"],
     ["records", "verify"]],
    ids=["extremal-f", "extremal-m", "ratio-seq", "records-list", "records-verify"],
)
def test_cache_dir_naming_a_file_exits_2_before_any_read(argv, tmp_path, capsys, monkeypatch):
    not_dir = tmp_path / "cache"
    not_dir.write_text("")

    def no_search(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(extremal, "_branch_and_bound", no_search)
    if argv[0] != "records":  # a pattern read first would fail on the missing file
        argv = argv + ["--pattern", str(tmp_path / "missing.tsr")]
    assert main(argv + ["--cache-dir", str(not_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cache directory {not_dir} is not a directory\n"
    monkeypatch.setenv("PATTERNFORGE_CACHE", str(not_dir))
    assert main(argv) == 2
    assert "is not a directory" in capsys.readouterr().err


def test_torn_cache_tail_is_dropped(files, tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = ["extremal", "f", "--n", "3", "--pattern", files["p"], "--cache-dir", str(cache)]
    assert run(capsys, argv)[0] == 0
    intact = run(capsys, argv)  # served from the record just stored
    path = cache / "records.jsonl"
    with path.open("a") as fh:
        fh.write('{"kind": "f", "n": 4')  # a write cut short
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == intact  # served from the intact record
    assert captured.err == f"warning: {path}:2: skipped a torn last line\n"
    assert run(capsys, ["extremal", "f", "--n", "2", "--pattern", files["p"],
                        "--cache-dir", str(cache)])[0] == 0
    lines = path.read_text().split("\n")
    assert lines[-1] == "" and [json.loads(x)["n"] for x in lines[:-1]] == [3, 2]
    assert run(capsys, ["records", "verify", "--cache-dir", str(cache)])[0] == 0


def test_torn_cache_tail_is_noted_once_per_ratio_seq(files, tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = ["ratio-seq", "--n-from", "1", "--n-to", "3", "--pattern", files["p"],
            "--cache-dir", str(cache)]
    intact = run(capsys, argv)  # stores the records for n = 1, 2, 3
    path = cache / "records.jsonl"
    with path.open("a") as fh:
        fh.write('{"kind": "f", "n": 4')  # a write cut short
    for _ in range(2):  # a later call in the same process is noted again
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == intact  # every n served from the cache
        assert captured.err == f"warning: {path}:4: skipped a torn last line\n"


def test_malformed_cache_middle_line_exits_2(files, tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = ["extremal", "f", "--n", "2", "--pattern", files["p"], "--cache-dir", str(cache)]
    assert run(capsys, argv)[0] == 0
    path = cache / "records.jsonl"
    path.write_text('{"kind": "f", "n": 4\n' + path.read_text())
    assert main(argv) == 2
    assert "records.jsonl:1" in capsys.readouterr().err


def test_malformed_record_for_another_key_is_reported_by_records_only(
    files, tmp_path, capsys
):
    cache = tmp_path / "cache"
    extremal = ["extremal", "f", "--pattern", files["p"], "--cache-dir", str(cache)]
    assert main(extremal + ["--n", "3"]) == 0
    path = cache / "records.jsonl"
    data = json.loads(path.read_text())
    data["witness"]["ones"].append([4, 4])  # outside the 3x3 extents
    path.write_text(json.dumps(data) + "\n")
    assert main(extremal + ["--n", "2"]) == 0  # another key: searched, not rejected
    capsys.readouterr()
    for argv in (
        ["records", "list", "--cache-dir", str(cache)],
        ["records", "verify", "--cache-dir", str(cache)],
        extremal + ["--n", "3"],  # the malformed record's own key
    ):
        assert main(argv) == 2
        assert "records.jsonl:1: malformed record" in capsys.readouterr().err


@pytest.mark.parametrize("one", [1.0, True])
def test_repeated_pattern_with_a_non_integer_one_exits_2(files, tmp_path, capsys, one):
    # records that store equal patterns share one tensor, but 1.0 and true
    # are not JSON integers even where they equal 1 as dict keys
    cache = tmp_path / "cache"
    argv = ["extremal", "f", "--n", "2", "--pattern", files["p"], "--cache-dir", str(cache)]
    assert main(argv) == 0
    path = cache / "records.jsonl"
    data = json.loads(path.read_text())
    data["pattern"]["ones"][0][0] = one
    path.write_text(path.read_text() + json.dumps(data) + "\n")
    capsys.readouterr()
    assert main(["records", "verify", "--cache-dir", str(cache)]) == 2
    assert "records.jsonl:2: malformed record" in capsys.readouterr().err


@pytest.mark.parametrize("one", [1.0, True])
def test_repeated_witness_with_a_non_integer_one_exits_2(files, tmp_path, capsys, one):
    # records that store equal witnesses share one tensor too
    cache = tmp_path / "cache"
    argv = ["extremal", "f", "--n", "2", "--pattern", files["p"], "--cache-dir", str(cache)]
    assert main(argv) == 0
    path = cache / "records.jsonl"
    data = json.loads(path.read_text())
    data["witness"]["ones"][0][0] = one
    path.write_text(path.read_text() + json.dumps(data) + "\n")
    capsys.readouterr()
    assert main(["records", "verify", "--cache-dir", str(cache)]) == 2
    assert "records.jsonl:2: malformed record" in capsys.readouterr().err


def test_records_cache_from_environment(files, tmp_path, capsys, monkeypatch):
    cache = tmp_path / "envcache"
    run(capsys, ["extremal", "f", "--n", "2", "--pattern", files["p"],
                 "--cache-dir", str(cache)])
    monkeypatch.setenv("PATTERNFORGE_CACHE", str(cache))
    code, out = run(capsys, ["records", "list"])
    assert code == 0
    assert "value=3" in out


def test_records_without_cache_dir_exits_2(capsys, monkeypatch):
    monkeypatch.delenv("PATTERNFORGE_CACHE", raising=False)
    code = main(["records", "list"])
    capsys.readouterr()
    assert code == 2


def test_ratio_seq_csv(files, capsys):
    code, out = run(capsys, ["ratio-seq", "--pattern", files["p"], "--n-from", "1", "--n-to", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,value,ratio,status"
    assert lines[1] == "1,1,1.0,exact"
    assert lines[3].startswith("3,5,")


# -- probability --------------------------------------------------------------


def test_prob_threshold(capsys):
    code, out = run(capsys, ["prob", "threshold", "--ell", "2", "--d", "2"])
    assert code == 0 and out == "34\n"


def test_prob_ell_json(capsys):
    code, out = run(capsys, ["prob", "ell", "--k", "1000000", "--d", "2", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["ell"] == 61 and data["threshold_ok"] is True


def test_prob_chain_strict_vs_degenerate(capsys):
    code, out = run(capsys, ["prob", "chain", "--k", "34", "--ell", "2", "--d", "2"])
    assert code == 0
    assert "strict: True" in out
    assert "final_bound_exact: 1/8" in out
    code, out = run(capsys, ["prob", "chain", "--k", "4", "--ell", "2", "--d", "2"])
    assert code == 1
    assert "strict: False" in out


def test_prob_chain_strict_where_floats_underflow(capsys):
    # the first two expressions print as 0.0, yet the chain holds
    code, out = run(capsys, ["prob", "chain", "--k", "10361", "--ell", "2", "--d", "2",
                             "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["strict"] is True and data["values"][:2] == [0.0, 0.0]


def test_prob_estimate_anchor(capsys):
    code, out = run(
        capsys,
        ["prob", "estimate", "--k", "2", "--ell", "2", "--d", "2",
         "--trials", "100", "--seed", "7"],
    )
    assert code == 0
    assert "estimate: 1.0" in out
    assert "undecided: 0" in out


def test_prob_estimate_needs_k_or_sweep(capsys):
    code = main(["prob", "estimate", "--ell", "2", "--d", "2", "--trials", "10", "--seed", "1"])
    capsys.readouterr()
    assert code == 2


def test_prob_sweep_csv_header(capsys):
    code, out = run(
        capsys,
        ["prob", "estimate", "--sweep-k", "2,6", "--ell", "2", "--d", "2",
         "--trials", "20", "--seed", "5"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,ell,d,trials,avoid_count,undecided,estimate,conf99,seed"
    assert len(lines) == 3


def _estimate_bytes(out: str) -> str:
    """`prob estimate --format json` output without `equal_split_misses`,
    re-emitted as the CLI prints JSON, so frozen outputs from before that
    field was added still compare byte for byte."""
    payload = json.loads(out)
    for rep in payload.get("reports", [payload]):
        del rep["equal_split_misses"]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _sha16(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# (k, ell, d, trials, seed) -> (avoid_count, first 16 hex digits of the sha256
# of the JSON output), recorded with TensorMatrix-built trials
FROZEN_ESTIMATES = {
    (34, 2, 2, 200, 11): (0, "c74a3cdfefe2a17a"),
    (34, 2, 2, 200, 2026): (0, "504d222647dcd871"),
    (119, 3, 2, 40, 11): (0, "e4663d8c9e736e1e"),
    (119, 3, 2, 40, 2026): (0, "23ef7e1a4a38d2c2"),
    (178, 2, 3, 100, 11): (0, "4f58a1858fdad5ca"),
    (178, 2, 3, 100, 2026): (0, "52edf294f7c02927"),
    (4, 2, 2, 200, 11): (57, "44b5affe0a371e24"),
    (4, 2, 2, 200, 2026): (59, "c3380351311c89f7"),
    (8, 2, 3, 200, 11): (179, "a5ebfb151574e1ea"),
    (8, 2, 3, 200, 2026): (179, "26d6f93217edfe1b"),
    (20, 2, 3, 200, 11): (0, "2e1e841e01fed926"),
    (20, 2, 3, 200, 2026): (0, "083c613554381b8f"),
    # the paper's d = 4 thresholds, recorded with parts read per coordinate
    (7120, 3, 4, 2, 11): (0, "c8b995b887ca7192"),
    (7120, 3, 4, 2, 2026): (0, "f2a27ce5db13cdc2"),
    (28392, 4, 4, 2, 11): (0, "4a268ee16b0b00a2"),
    (28392, 4, 4, 2, 2026): (0, "9761ab27c03d3728"),
}
# the `equal_split_misses` of each FROZEN_ESTIMATES point, which the digests
# above leave out, recorded with the split read from a set of ones per trial
FROZEN_SPLIT_MISSES = {
    (34, 2, 2, 200, 11): 0,
    (34, 2, 2, 200, 2026): 0,
    (119, 3, 2, 40, 11): 0,
    (119, 3, 2, 40, 2026): 0,
    (178, 2, 3, 100, 11): 0,
    (178, 2, 3, 100, 2026): 0,
    (4, 2, 2, 200, 11): 57,
    (4, 2, 2, 200, 2026): 59,
    (8, 2, 3, 200, 11): 179,
    (8, 2, 3, 200, 2026): 179,
    (20, 2, 3, 200, 11): 41,
    (20, 2, 3, 200, 2026): 43,
    (7120, 3, 4, 2, 11): 0,
    (7120, 3, 4, 2, 2026): 0,
    (28392, 4, 4, 2, 11): 0,
    (28392, 4, 4, 2, 2026): 0,
}
SWEEP_ARGV = ["prob", "estimate", "--sweep-k", "2,3,4,8,16", "--ell", "2", "--d", "2",
              "--trials", "100", "--seed", "5"]
FROZEN_SWEEP_TEXT = """\
k,ell,d,trials,avoid_count,undecided,estimate,conf99,seed
2,2,2,100,100,0,1.0,0.0,5
3,2,2,100,100,0,1.0,0.0,5
4,2,2,100,34,0,0.34,0.12201929344448607,5
8,2,2,100,0,0,0.0,0.0,5
16,2,2,100,0,0,0.0,0.0,5
"""
FROZEN_SWEEP_JSON = "af3708b3ff9a8ca3"
FROZEN_SWEEP_MISSES = [100, 100, 34, 2, 0]  # per k, as FROZEN_SPLIT_MISSES


def _estimate_argv(k, ell, d, trials, seed):
    return ["prob", "estimate", "--k", str(k), "--ell", str(ell), "--d", str(d),
            "--trials", str(trials), "--seed", str(seed), "--format", "json"]


@pytest.mark.parametrize("point", list(FROZEN_ESTIMATES), ids=str)
def test_frozen_estimates(point, capsys):
    code, out = run(capsys, _estimate_argv(*point))
    assert code == 0
    got = (json.loads(out)["avoid_count"], _sha16(_estimate_bytes(out)))
    assert got == FROZEN_ESTIMATES[point]
    assert json.loads(out)["equal_split_misses"] == FROZEN_SPLIT_MISSES[point]


# `prob estimate --k 4 --ell 2 --d 2 --trials 200 --seed 11` text output,
# recorded before the text lines and the sweep CSV shared one field list
FROZEN_ESTIMATE_TEXT = """\
k: 4
ell: 2
d: 2
trials: 200
avoid_count: 57
undecided: 0
estimate: 0.285
conf99: 0.08222001139847579
seed: 11
"""


def test_frozen_estimate_text(capsys):
    argv = _estimate_argv(4, 2, 2, 200, 11)[:-2]
    assert run(capsys, argv) == (0, FROZEN_ESTIMATE_TEXT)


def test_frozen_sweep(capsys):
    assert run(capsys, SWEEP_ARGV) == (0, FROZEN_SWEEP_TEXT)
    code, out = run(capsys, SWEEP_ARGV + ["--format", "json"])
    assert (code, _sha16(_estimate_bytes(out))) == (0, FROZEN_SWEEP_JSON)
    misses = [rep["equal_split_misses"] for rep in json.loads(out)["reports"]]
    assert misses == FROZEN_SWEEP_MISSES


def test_threads_do_not_change_bytes(capsys):
    outs = []
    for threads in ("1", "4"):
        for _ in range(2):
            _, out = run(
                capsys,
                ["prob", "estimate", "--k", "12", "--ell", "2", "--d", "2",
                 "--trials", "100", "--seed", "42", "--threads", threads,
                 "--format", "json"],
            )
            outs.append(out)
    assert len(set(outs)) == 1


# -- usage errors -------------------------------------------------------------


def test_threads_below_one_exits_2(files, capsys):
    for argv in (
        ["prob", "estimate", "--k", "12", "--ell", "2", "--d", "2",
         "--trials", "10", "--seed", "1"],
        ["extremal", "f", "--n", "2", "--pattern", files["p"]],
    ):
        assert main(argv + ["--threads", "1"]) == 0
        assert main(argv + ["--threads", "0"]) == 2
    assert "--threads" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2


def test_missing_file_exits_2(capsys):
    code = main(["minor", "--a", "/nonexistent/path.tsr", "--b", "allones:2,2"])
    capsys.readouterr()
    assert code == 2


def test_malformed_tensor_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.tsr"
    bad.write_text("dims: 2 2\n1 1\n5 5\n")
    code = main(["contains", "--a", "allones:2,2", "--p", str(bad)])
    capsys.readouterr()
    assert code == 2


def test_bad_allones_shorthand_exits_2(capsys):
    code = main(["minor", "--a", "allones:", "--b", "allones:2,2"])
    capsys.readouterr()
    assert code == 2


def test_non_integer_allones_extent_exits_2(capsys):
    code = main(["minor", "--a", "allones:2,x", "--b", "allones:2,2"])
    assert capsys.readouterr().err.startswith("error: ")
    assert code == 2


@pytest.mark.parametrize(
    "payload",
    [
        '{"dims": [2, 2], "ones": [[1, "x"]]}',
        '{"dims": [2, 2], "ones": 5}',
        '{"dims": 3}',
        '{"dims": [2.5, 2]}',
        '{"dims": [2, 2], "ones": [[1.9, 1]]}',
        '{"dims": [2, 2], "ones": [[true, 1]]}',
    ],
    ids=["non-integer-coordinate", "ones-not-a-list", "dims-not-a-list",
         "float-extent", "float-coordinate", "bool-coordinate"],
)
def test_malformed_json_tensor_exits_2(tmp_path, capsys, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(payload)
    code = main(["contains", "--a", str(bad), "--p", "allones:1,1"])
    assert capsys.readouterr().err.startswith("error: ")
    assert code == 2


def test_non_integer_sweep_k_exits_2(capsys):
    for sweep in ("2,x", ","):
        code = main(["prob", "estimate", "--sweep-k", sweep, "--ell", "2", "--d", "2",
                     "--trials", "3", "--seed", "1"])
        assert "--sweep-k" in capsys.readouterr().err
        assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["extremal", "f", "--n", "2", "--pattern", "allones:2,2"],
        ["extremal", "m", "--n", "2", "--pattern", "allones:2,2"],
        ["construct", "homo1", "--s", "2", "--n", "allones:1,1", "--k", "3"],
        ["construct", "scale", "--s", "2", "--a", "allones:1,1", "--p", "allones:2,2"],
    ],
    ids=["extremal-f", "extremal-m", "construct-homo1", "construct-scale"],
)
def test_no_verify_flag_exits_2(capsys, argv):
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--no-verify"]) == 2
    assert "unrecognized arguments: --no-verify" in capsys.readouterr().err


def test_k_with_sweep_k_exits_2(capsys):
    code = main(["prob", "estimate", "--k", "5", "--sweep-k", "2,3", "--ell", "2",
                 "--d", "2", "--trials", "3", "--seed", "1"])
    captured = capsys.readouterr()
    assert "not allowed with argument --k" in captured.err
    assert captured.out == ""
    assert code == 2


def test_ratio_seq_empty_range_exits_2(files, capsys):
    code = main(["ratio-seq", "--pattern", files["p"], "--n-from", "5", "--n-to", "2"])
    captured = capsys.readouterr()
    assert "empty range of n" in captured.err
    assert captured.out == ""
    assert code == 2


def test_malformed_witness_json_exits_2(tmp_path, capsys):
    perm = tmp_path / "cyc.tsr"
    perm.write_text(
        serialize_tensor(TensorMatrix((4, 4), [(1, 2), (2, 4), (3, 1), (4, 3)]))
    )
    wit = tmp_path / "w.json"
    wit.write_text('{"axes": [[[1, 2], [3, 4]]')
    code = main(["construct", "corner-reduce", "--p", str(perm), "--witness", str(wit)])
    assert capsys.readouterr().err.startswith("error: ")
    assert code == 2


@pytest.mark.parametrize(
    "axes",
    [
        "5",
        "[5]",
        "[[5]]",
        '[[["a", 2]]]',
        "[[[1.5, 2], [3, 4]], [[1, 2], [3, 4]]]",
        "[[[true, 2], [3, 4]], [[1, 2], [3, 4]]]",
        '[[[1, "2"], [3, 4]], [[1, 2], [3, 4]]]',
    ],
    ids=["axes-int", "axis-int", "interval-int", "string-end", "float-end",
         "bool-end", "digit-string-end"],
)
def test_malformed_witness_axes_exit_2(tmp_path, capsys, axes):
    perm = tmp_path / "cyc.tsr"
    perm.write_text(
        serialize_tensor(TensorMatrix((4, 4), [(1, 2), (2, 4), (3, 1), (4, 3)]))
    )
    wit = tmp_path / "w.json"
    wit.write_text(f'{{"axes": {axes}}}')
    code = main(["construct", "corner-reduce", "--p", str(perm), "--witness", str(wit)])
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["prob", "chain", "--k", str(10**400), "--ell", "2", "--d", "2"],
        ["prob", "threshold", "--ell", str(10**400), "--d", "2"],
        ["prob", "ell", "--k", str(10**400), "--d", "2"],
        ["prob", "threshold", "--ell", "2", "--d", "100000"],
        # numpy refuses the shuffle's array: too many elements, too many bytes
        ["prob", "estimate", "--k", str(10**400), "--ell", "2", "--d", "2",
         "--trials", "1", "--seed", "1"],
        ["construct", "random-perm", "--k", str(10**400), "--d", "2", "--seed", "1"],
        ["prob", "estimate", "--k", str(10**11), "--ell", "2", "--d", "2",
         "--trials", "1", "--seed", "1"],
        ["construct", "random-perm", "--k", str(10**11), "--d", "2", "--seed", "1"],
    ],
    ids=["chain-k", "threshold-ell", "ell-k", "threshold-d", "estimate-k-size",
         "random-perm-k-size", "estimate-k-bytes", "random-perm-k-bytes"],
)
def test_float_overflow_exits_2(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.out == ""
    assert code == 2


def test_nan_time_budget_exits_2(files, capsys):
    code = main(["extremal", "f", "--n", "6", "--pattern", files["p"],
                 "--budget-secs", "nan"])
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "time budget" in captured.err
    assert captured.out == ""
    assert code == 2


def test_seed_must_fit_64_bits(capsys):
    code = main(["construct", "random-perm", "--k", "3", "--d", "2",
                 "--seed", str(2**64)])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("budget", ["0", "-4"])
def test_budget_nodes_below_one_exits_2(files, capsys, budget):
    for argv in (
        ["contains", "--a", files["a"], "--p", files["p"]],
        ["minor", "--a", files["a"], "--b", files["p"]],
        ["extremal", "f", "--n", "2", "--pattern", files["p"]],
        ["ratio-seq", "--pattern", files["p"], "--n-from", "2", "--n-to", "2"],
    ):
        assert main(argv + ["--budget-nodes", budget]) == 2
        assert "--budget-nodes" in capsys.readouterr().err


NOT_UTF8 = b"\xff\xfe\x00d\x00i\x00m\x00s"


def test_non_utf8_tensor_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.tsr"
    bad.write_bytes(NOT_UTF8)
    code = main(["contains", "--a", str(bad), "--p", "allones:1,1"])
    assert capsys.readouterr().err.startswith("error: ")
    assert code == 2


def test_non_utf8_witness_file_exits_2(tmp_path, capsys):
    perm = tmp_path / "cyc.tsr"
    perm.write_text(
        serialize_tensor(TensorMatrix((4, 4), [(1, 2), (2, 4), (3, 1), (4, 3)]))
    )
    wit = tmp_path / "w.json"
    wit.write_bytes(NOT_UTF8)
    code = main(["construct", "corner-reduce", "--p", str(perm), "--witness", str(wit)])
    assert capsys.readouterr().err.startswith("error: ")
    assert code == 2


def test_non_utf8_record_line_exits_2(files, tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(["extremal", "f", "--n", "2", "--pattern", files["p"],
                 "--cache-dir", str(cache)]) == 0
    path = cache / "records.jsonl"
    path.write_bytes(b'{"kind": "\xff"}\n' + path.read_bytes())
    code = main(["records", "list", "--cache-dir", str(cache)])
    assert "records.jsonl:1" in capsys.readouterr().err
    assert code == 2


# -- one parser per process ----------------------------------------------------


def python(code, *args):
    """A new interpreter running `code` against this checkout's package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    ))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def fresh_run(argv):
    """(exit code, stdout) of `main(argv)` in a new interpreter."""
    proc = python("import sys; from patternforge.cli import main; "
                  "sys.exit(main(sys.argv[1:]))", *argv)
    return proc.returncode, proc.stdout


def test_parser_is_built_by_the_first_main_call_only():
    code = """
import argparse, contextlib, io, json
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import patternforge.cli as cli
on_import = len(built)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["prob", "threshold", "--ell", "2", "--d", "2"]) for _ in range(3)]
by_main = len(built) - on_import
cli.build_parser()
print(json.dumps([on_import, by_main, len(built) - on_import - by_main, codes]))
"""
    proc = python(code)
    assert proc.returncode == 0, proc.stderr
    on_import, by_main, per_tree, codes = json.loads(proc.stdout)
    assert on_import == 0
    assert per_tree > 1 and by_main == per_tree  # one tree of subparsers, once
    assert codes == [0, 0, 0]


ESTIMATE = ["prob", "estimate", "--ell", "2", "--d", "2", "--trials", "20",
            "--seed", "5", "--format", "json"]


@pytest.mark.parametrize("first, first_code", [
    (["prob", "estimate", "--k", "x", "--ell", "2"], 2),
    (["prob", "estimate", "--k", "4", "--sweep-k", "4,6"] + ESTIMATE[2:], 2),
    (["--help"], 0),
    (["prob", "estimate", "--help"], 0),
])
def test_reused_parser_after_an_early_exit(first, first_code, capsys):
    assert main(first) == first_code
    capsys.readouterr()
    argv = ESTIMATE + ["--k", "6"]
    assert run(capsys, argv) == fresh_run(argv)


def test_reused_parser_keeps_no_state_between_calls(capsys):
    sequence = [ESTIMATE + ["--k", "6"], ESTIMATE + ["--sweep-k", "4,6"],
                ESTIMATE[:-2] + ["--k", "8"]]
    for argv in sequence:
        assert run(capsys, argv) == fresh_run(argv)


# -- numpy on first use --------------------------------------------------------


def test_numpy_is_imported_only_by_commands_that_draw(files):
    # a new interpreter, since the test modules import numpy themselves
    code = """
import contextlib, io, json, sys
import patternforge, patternforge.cli
loaded = {"import": "numpy" in sys.modules}
pattern, cache, mcache, estimate, identity = sys.argv[1:]
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    # the split misses and the pure sweep decides: 100 cut tuples x 202 steps
    codes.append(patternforge.cli.main(["minor", "--a", identity, "--b", "allones:2,2"]))
    loaded["minor"] = "numpy" in sys.modules
    for kind, target, where in (("f", pattern, cache), ("m", "allones:2,2", mcache)):
        for step in ("miss", "hit"):
            codes.append(patternforge.cli.main(
                ["extremal", kind, "--n", "3", "--pattern", target, "--cache-dir", where]))
            loaded[f"{kind} {step}"] = "numpy" in sys.modules
    # the witness of an all-ones m record misses its equal split
    codes.append(patternforge.cli.main(["records", "verify", "--cache-dir", mcache]))
    loaded["m verify"] = "numpy" in sys.modules
    codes.append(patternforge.cli.main(json.loads(estimate)))
loaded["estimate"] = "numpy" in sys.modules
print(json.dumps([loaded, codes]))
"""
    identity = files["dir"] / "identity101.tsr"
    identity.write_text(serialize_tensor(identity_permutation(101, 2).matrix))
    proc = python(code, files["p"], str(files["dir"] / "cache"), str(files["dir"] / "mcache"),
                  json.dumps(ESTIMATE + ["--k", "6"]), str(identity))
    assert proc.returncode == 0, proc.stderr
    loaded, codes = json.loads(proc.stdout)
    assert loaded == {"import": False, "minor": False, "f miss": False, "f hit": False,
                      "m miss": False, "m hit": False, "m verify": False, "estimate": True}
    assert codes == [1] + [0] * 6
    # one record each: the first run searched and appended, the second hit it
    for cache in ("cache", "mcache"):
        assert (files["dir"] / cache / "records.jsonl").read_text().count("\n") == 1
