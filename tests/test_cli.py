"""Command-line interface: exit statuses, output formats, determinism."""

import json

import pytest

from patternforge import (
    GridWitness,
    TensorMatrix,
    antidiagonal,
    identity_permutation,
    kronecker,
    serialize_tensor,
    tensor_to_json,
    verify_witness,
)
from patternforge.cli import main


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
    # 59 interval ends show that antidiagonal(6, 2) avoids the 2x2 identity
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


def test_torn_cache_tail_is_dropped(files, tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = ["extremal", "f", "--n", "3", "--pattern", files["p"], "--cache-dir", str(cache)]
    assert run(capsys, argv)[0] == 0
    path = cache / "records.jsonl"
    with path.open("a") as fh:
        fh.write('{"kind": "f", "n": 4')  # a write cut short
    assert run(capsys, argv)[0] == 0  # served from the intact record
    assert run(capsys, ["extremal", "f", "--n", "2", "--pattern", files["p"],
                        "--cache-dir", str(cache)])[0] == 0
    lines = path.read_text().split("\n")
    assert lines[-1] == "" and [json.loads(x)["n"] for x in lines[:-1]] == [3, 2]
    assert run(capsys, ["records", "verify", "--cache-dir", str(cache)])[0] == 0


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
