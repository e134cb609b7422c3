"""Branch-and-bound extremal search against the naive all-matrices oracle."""

import dataclasses
import fcntl
import hashlib
import itertools
import json
import tempfile
import threading
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from patternforge import containment, extremal
from patternforge.cli import main
from patternforge.extremal import (
    ExtremalRecord,
    RatioPoint,
    SearchConfig,
    _cached_lookup,
    _parsed_lines,
    append_record,
    load_records,
    max_ones_avoiding,
    max_ones_avoiding_minor,
    ratio_sequence,
    records_path,
)
from patternforge.containment import _sweep, contains_pattern, has_interval_minor
from patternforge.errors import PreconditionError, StructureError, VerificationError
from patternforge.tensor import TensorMatrix, all_ones

IDENTITY2 = TensorMatrix((2, 2), [(1, 1), (2, 2)])
ANTI2 = TensorMatrix((2, 2), [(1, 2), (2, 1)])
SINGLE = TensorMatrix((1, 1), [(1, 1)])


class TestOrdinaryExtremal:
    def test_identity_values_match_oracle(self):
        for n in (1, 2, 3):
            rec = max_ones_avoiding(n, IDENTITY2)
            want, _ = oracles.max_ones_oracle(
                (n, n), lambda M: not oracles.contains_oracle(M, IDENTITY2)
            )
            assert rec.value == want
        assert [max_ones_avoiding(n, IDENTITY2).value for n in (1, 2, 3)] == [1, 3, 5]

    def test_identity_frozen_values_to_n5(self):
        assert [max_ones_avoiding(n, IDENTITY2).value for n in (4, 5)] == [7, 9]

    def test_single_one_pattern_forces_zero(self):
        rec = max_ones_avoiding(3, SINGLE)
        assert rec.value == 0
        assert rec.witness.is_zero

    def test_witness_attains_and_avoids(self):
        rec = max_ones_avoiding(4, ANTI2)
        assert rec.witness.ones_count == rec.value
        assert not contains_pattern(rec.witness, ANTI2)
        assert rec.status == "exact"

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(st.integers(1, 3), st.sets(st.tuples(st.integers(1, 2), st.integers(1, 2)), min_size=1))
    def test_random_2x2_patterns_match_oracle(self, n, ones):
        P = TensorMatrix((2, 2), ones)
        rec = max_ones_avoiding(n, P)
        want, _ = oracles.max_ones_oracle(
            (n, n), lambda M: not oracles.contains_oracle(M, P)
        )
        assert rec.value == want
        if P.ones_count >= 2:
            assert n ** 1 <= rec.value <= n ** 2

    def test_deterministic_witness(self):
        a = max_ones_avoiding(4, IDENTITY2)
        b = max_ones_avoiding(4, IDENTITY2)
        assert a.witness == b.witness and a.value == b.value

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            max_ones_avoiding(2, TensorMatrix((2, 2)))
        with pytest.raises(PreconditionError):
            max_ones_avoiding(2, TensorMatrix((3,), [(1,)]))
        with pytest.raises(PreconditionError):
            max_ones_avoiding(0, IDENTITY2)


class TestMinorExtremal:
    def test_side2_values_match_oracle(self):
        B = all_ones((2, 2))
        for n in (1, 2, 3):
            rec = max_ones_avoiding_minor(n, B)
            want, _ = oracles.max_ones_oracle(
                (n, n), lambda M: not oracles.minor_oracle(M, B)
            )
            assert rec.value == want
        assert max_ones_avoiding_minor(2, all_ones((2, 2))).value == 3

    def test_single_cell_pattern_forces_zero(self):
        assert max_ones_avoiding_minor(3, all_ones((1, 1))).value == 0

    def test_dominates_ordinary_for_permutations(self):
        # avoiding the all-ones minor is harder to do with many ones
        for n in (1, 2, 3):
            mv = max_ones_avoiding_minor(n, all_ones((2, 2))).value
            for P in (IDENTITY2, ANTI2):
                assert max_ones_avoiding(n, P).value <= mv

    def test_non_allones_pattern_uses_generic_decider(self):
        rec = max_ones_avoiding_minor(3, IDENTITY2)
        assert not has_interval_minor(rec.witness, IDENTITY2)
        want, _ = oracles.max_ones_oracle(
            (3, 3), lambda M: not oracles.minor_oracle(M, IDENTITY2)
        )
        assert rec.value == want

    def test_3d_small_matches_oracle(self):
        B = all_ones((2, 2, 2))
        rec = max_ones_avoiding_minor(2, B)
        want, _ = oracles.max_ones_oracle(
            (2, 2, 2), lambda M: not oracles.minor_oracle(M, B)
        )
        assert rec.value == want == 7


@st.composite
def checker_cases(draw):
    """(host, pattern): d in {2, 3}, hosts up to 4x4 and 3x3x3 with at least
    one 1, patterns up to 3 per axis with at least one 1, so both empty
    cross-sections of B and extents of B beyond the host occur."""
    d = draw(st.integers(2, 3))
    hdims = tuple(draw(st.integers(1, 4 if d == 2 else 3)) for _ in range(d))
    pdims = tuple(draw(st.integers(1, 3)) for _ in range(d))
    hcells = list(itertools.product(*(range(1, n + 1) for n in hdims)))
    pcells = list(itertools.product(*(range(1, k + 1) for k in pdims)))
    hones = draw(st.lists(st.sampled_from(hcells), unique=True, min_size=1))
    pones = draw(st.lists(st.sampled_from(pcells), unique=True, min_size=1))
    return TensorMatrix(hdims, hones), TensorMatrix(pdims, pones)


class TestMinorChecker:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(checker_cases())
    # empty middle row and column of B
    @example((all_ones((3, 3)), TensorMatrix((3, 3), [(1, 1), (3, 3)])))
    @example((all_ones((2, 4)), TensorMatrix((3, 2), [(1, 1), (3, 2)])))  # k > n
    # block (2, 1) holds the host's 1, block (1, 3) is the one B needs
    @example((TensorMatrix((2, 4), [(2, 1)]), TensorMatrix((2, 3), [(1, 3)])))
    @example((TensorMatrix((3, 3, 3), [(1, 1, 1), (3, 3, 3)]),
              TensorMatrix((2, 2, 2), [(1, 1, 1), (2, 2, 2)])))
    def test_matches_minor_oracle(self, case):
        A, B = case
        assert (_sweep(A.ones, B, A.dims) is not None) == oracles.minor_oracle(A, B)


ROW1 = [(1, 1), (1, 2), (1, 3), (1, 4)]
CORNER = ROW1 + [(2, 1), (3, 1), (4, 1)]  # the lex-first maximum for I2 and J2
P3X3 = TensorMatrix((3, 3), [(1, 1), (1, 3), (2, 2), (3, 1)])
P3X3_FOUND = ROW1 + [(2, 1), (2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 3), (4, 4)]
P3X3_MAX = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
            (3, 4), (4, 2), (4, 3), (4, 4)]
LB = "lower-bound-only"
# (budget, value, status, witness) at n=4, recorded when branch and bound
# still counted its own nodes; the last two budgets bracket the node count of
# the whole search, so an off-by-one in the node accounting fails here
FROZEN_BUDGETED = [
    ("f", IDENTITY2, [(1, 0, LB, []), (2, 1, LB, [(1, 1)]), (5, 4, LB, ROW1),
                      (17, 7, LB, CORNER), (50, 7, LB, CORNER), (100, 7, LB, CORNER),
                      (1000, 7, LB, CORNER), (5000, 7, "exact", CORNER),
                      (1796, 7, LB, CORNER), (1797, 7, "exact", CORNER)]),
    ("f", P3X3, [(1, 0, LB, []), (2, 1, LB, [(1, 1)]), (5, 4, LB, ROW1),
                 (17, 12, LB, P3X3_FOUND), (50, 12, LB, P3X3_FOUND),
                 (100, 12, LB, P3X3_FOUND), (1000, 13, "exact", P3X3_MAX),
                 (5000, 13, "exact", P3X3_MAX), (437, 13, LB, P3X3_MAX),
                 (438, 13, "exact", P3X3_MAX)]),
    ("m", all_ones((2, 2)), [(1, 0, LB, []), (2, 1, LB, [(1, 1)]), (5, 4, LB, ROW1),
                             (17, 7, LB, CORNER), (50, 7, LB, CORNER),
                             (100, 7, LB, CORNER), (1000, 7, LB, CORNER),
                             (5000, 7, "exact", CORNER), (4372, 7, LB, CORNER),
                             (4373, 7, "exact", CORNER)]),
    ("m", IDENTITY2, [(1, 0, LB, []), (2, 1, LB, [(1, 1)]), (5, 4, LB, ROW1),
                      (17, 7, LB, CORNER), (50, 7, LB, CORNER), (100, 7, LB, CORNER),
                      (1000, 7, LB, CORNER), (5000, 7, "exact", CORNER),
                      (1796, 7, LB, CORNER), (1797, 7, "exact", CORNER)]),
]


class TestBudgets:
    def test_node_budget_gives_lower_bound_status(self):
        rec = max_ones_avoiding(4, IDENTITY2, SearchConfig(node_budget=5))
        assert rec.status == "lower-bound-only"
        assert rec.witness.ones_count == rec.value
        assert not contains_pattern(rec.witness, IDENTITY2)

    @pytest.mark.parametrize("kind, P, results", FROZEN_BUDGETED,
                             ids=["f-I2", "f-3x3", "m-J2", "m-I2"])
    def test_frozen_node_budgeted_results(self, kind, P, results):
        run = max_ones_avoiding if kind == "f" else max_ones_avoiding_minor
        for budget, value, status, ones in results:
            rec = run(4, P, SearchConfig(node_budget=budget))
            assert (rec.value, rec.status, sorted(rec.witness.ones)) == (value, status, ones)

    @pytest.mark.parametrize("kind, n, P, value", [
        ("f", 32, IDENTITY2, 63),
        ("f", 10, TensorMatrix((2, 2, 2), [(1, 1, 1), (2, 2, 2)]), 271),
        ("m", 32, all_ones((2, 2)), 63),
    ], ids=["f-I2-n32", "f-I2-d3-n10", "m-J2-n32"])
    def test_budgeted_search_deeper_than_the_frame_limit(self, kind, n, P, value):
        # the first descent visits all 1,024 or 1,000 cells, one level each
        run = max_ones_avoiding if kind == "f" else max_ones_avoiding_minor
        rec = run(n, P, SearchConfig(node_budget=3000))
        rec.verify()
        assert (rec.value, rec.status) == (value, "lower-bound-only")

    def test_time_budget_gives_lower_bound_status(self):
        for run in (max_ones_avoiding, max_ones_avoiding_minor):
            rec = run(5, IDENTITY2, SearchConfig(time_budget=1e-9))
            assert rec.status == "lower-bound-only"

    def test_budget_value_never_exceeds_exact(self):
        exact = max_ones_avoiding(4, IDENTITY2).value
        for budget in (1, 10, 100, 1000):
            rec = max_ones_avoiding(4, IDENTITY2, SearchConfig(node_budget=budget))
            assert rec.value <= exact

    def test_bad_budgets_rejected(self):
        with pytest.raises(PreconditionError):
            SearchConfig(node_budget=0)
        for secs in (-1, float("nan")):
            with pytest.raises(PreconditionError):
                SearchConfig(time_budget=secs)

    def test_fingerprint_is_stable(self):
        # records cached by earlier versions are keyed by this digest
        assert SearchConfig().fingerprint() == "b16ed3eec707f741"

    def test_fingerprint_is_the_digest_of_its_settings(self):
        settings = json.dumps({"algo": "bnb-lex-1", "reflect": False}, sort_keys=True)
        digest = hashlib.sha256(settings.encode()).hexdigest()[:16]
        assert SearchConfig().fingerprint() == digest


FP = SearchConfig().fingerprint()


def _stand_in_record(kind, n, P, value, status, fingerprint=FP, elapsed=0.0):
    """A record that loads like a cached one; it is no search result."""
    cells = sorted(itertools.product(range(1, n + 1), repeat=P.d))[:value]
    return ExtremalRecord(kind=kind, n=n, d=P.d, pattern=P, value=value,
                          witness=TensorMatrix((n,) * P.d, cells), status=status,
                          elapsed=elapsed, fingerprint=fingerprint)


# cache lines around the key ("f", 2, IDENTITY2, FP); None is a blank line
LINE_VARIANTS = {
    "key": ("f", 2, IDENTITY2, FP),
    "ones-out-of-order": ("f", 2, IDENTITY2, FP),
    "other-kind": ("m", 2, IDENTITY2, FP),
    "other-n": ("f", 3, IDENTITY2, FP),
    "other-d": ("f", 2, TensorMatrix((2, 2, 2), [(1, 1, 1), (2, 2, 2)]), FP),
    "other-fingerprint": ("f", 2, IDENTITY2, "0" * 16),
    "other-d-field": ("f", 2, IDENTITY2, FP),
    "symmetric": ("f", 2, ANTI2, FP),
    "blank": None,
}
# hand-written lines: edits of the JSON a record writes
LINE_EDITS = {
    "ones-out-of-order": lambda data: data["pattern"]["ones"].reverse(),
    "other-d-field": lambda data: data.update(d=3),  # the pattern stays 2-d
}


# one line each of a record cache, to mix into files that `_parsed_lines`
# must read as the line-by-line oracle does
_RECORD = json.dumps({"kind": "f", "n": 2, "ones": [[1, 2], [2, 1]]}).encode()
CACHE_LINES = {
    "record": _RECORD,
    "blank": b"",
    "vt": b"\x0b",  # bytes.strip empties these three, str.strip all four
    "ff": b"\x0c",
    "spaces": b" \t ",
    "nbsp": "\xa0".encode(),
    "padded": b" \t" + _RECORD + b"\t ",
    "ff-after": _RECORD + b"\x0c",
    "separators": json.dumps({"s": "a\u2028b\x85c"}, ensure_ascii=False).encode(),
    "nan-field": b'{"n": NaN}',
    "split-open": b'{"kind":',
    "split-close": b' "f"}',
    "two-values": _RECORD + b" " + _RECORD,
    "scalar": b"3",
    "nan": b"NaN",
    "not-utf8": b'{"s": "\xff"}',
    "bad-json": b'{"kind": f}',
    "torn": b'{"kind": "f", "n',
}


class TestCache:
    @settings(max_examples=150, deadline=None)
    @given(
        lines=st.lists(
            st.tuples(
                st.sampled_from(sorted(LINE_VARIANTS)),
                st.sampled_from(["exact", "lower-bound-only"]),
                st.integers(0, 4),
            ),
            max_size=12,
        ),
        torn=st.booleans(),
    )
    @example(
        lines=[("key", "exact", 3), ("key", "lower-bound-only", 2), ("blank", "exact", 0),
               ("ones-out-of-order", "exact", 4), ("key", "lower-bound-only", 2),
               ("ones-out-of-order", "lower-bound-only", 3), ("symmetric", "exact", 4)]
              + [(v, "exact", 4) for v in sorted(LINE_VARIANTS) if v.startswith("other")],
        torn=True,
    )
    def test_lookup_agrees_with_full_load(self, lines, torn):
        text = ""
        for elapsed, (variant, status, value) in enumerate(lines):
            if LINE_VARIANTS[variant] is None:
                text += "\n"
                continue
            kind, n, P, fp = LINE_VARIANTS[variant]
            data = _stand_in_record(kind, n, P, value, status, fp, float(elapsed)).to_json()
            if variant in LINE_EDITS:
                LINE_EDITS[variant](data)
            text += json.dumps(data) + "\n"
        if torn:
            text += '{"kind": "f", "n": 2'
        with tempfile.TemporaryDirectory() as cache:
            records_path(cache).write_text(text)
            got = _cached_lookup(SearchConfig(cache_dir=cache), "f", 2, IDENTITY2)
            assert got == oracles.cached_lookup_oracle(cache, "f", 2, IDENTITY2, FP)

    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(st.sampled_from(sorted(CACHE_LINES)), max_size=10),
        ends=st.lists(st.sampled_from([b"\n"] * 6 + [b"\r\n", b"\r"]), min_size=10, max_size=10),
        tail=st.sampled_from([b"", b"\n", b" ", CACHE_LINES["torn"], CACHE_LINES["record"]]),
    )
    @example(lines=["record", "blank", "vt", "ff", "spaces", "record"], ends=[b"\n"] * 10, tail=b"")
    @example(lines=["record", "nbsp", "record"], ends=[b"\n"] * 10, tail=b"")
    @example(lines=["record", "padded", "separators", "nan-field"], ends=[b"\n"] * 10, tail=b"")
    @example(lines=["record", "ff-after"], ends=[b"\n"] * 10, tail=b"")
    @example(lines=["record", "record", "padded"], ends=[b"\r\n"] + [b"\n"] * 9, tail=b"")
    @example(lines=["record", "record", "blank"], ends=[b"\n", b"\r"] + [b"\n"] * 8, tail=b"")
    @example(lines=["record", "split-open", "split-close"], ends=[b"\n"] * 10, tail=b"")
    @example(lines=["record", "two-values"], ends=[b"\n"] * 10, tail=b"")
    @example(lines=["record", "scalar"], ends=[b"\n"] * 10, tail=b"")
    @example(lines=["record", "nan"], ends=[b"\n"] * 10, tail=b"")
    @example(lines=["record", "not-utf8", "record"], ends=[b"\n"] * 10, tail=b"")
    @example(lines=["record", "bad-json"], ends=[b"\n"] * 10, tail=b"")
    @example(lines=["record"], ends=[b"\n"] * 10, tail=CACHE_LINES["torn"])
    def test_parsed_lines_match_the_line_by_line_read(self, lines, ends, tail):
        data = b"".join(CACHE_LINES[name] + end for name, end in zip(lines, ends)) + tail
        with tempfile.TemporaryDirectory() as cache:
            records_path(cache).write_bytes(data)
            try:
                want = repr(oracles.parsed_lines_oracle(cache))
            except StructureError as exc:
                want = exc
            try:
                got = repr(list(_parsed_lines(cache)))
            except StructureError as exc:
                assert (type(exc), str(exc)) == (type(want), str(want))
            else:
                assert got == want  # repr, so that NaN fields compare equal

    def test_hit_builds_one_record(self, tmp_path, monkeypatch):
        hit = max_ones_avoiding(2, IDENTITY2)
        for i in range(50):
            if i == 25:
                append_record(tmp_path, hit)
            else:
                append_record(tmp_path, _stand_in_record(
                    "f", 3, IDENTITY2, i % 10, "lower-bound-only", fingerprint=f"{i:016x}"))
        build = ExtremalRecord._from_json.__func__
        calls = []

        def counting(cls, data, tensors):
            calls.append(data)
            return build(cls, data, tensors)

        monkeypatch.setattr(ExtremalRecord, "_from_json", classmethod(counting))
        assert max_ones_avoiding(2, IDENTITY2, SearchConfig(cache_dir=tmp_path)) == hit
        assert len(calls) == 1

    def test_exact_record_round_trips(self, tmp_path):
        cfg = SearchConfig(cache_dir=tmp_path)
        first = max_ones_avoiding(3, IDENTITY2, cfg)
        again = max_ones_avoiding(3, IDENTITY2, cfg)
        assert first == again  # returned from cache, not re-searched
        assert len(load_records(tmp_path)) == 1

    def test_resume_from_lower_bound(self, tmp_path):
        cfg_small = SearchConfig(cache_dir=tmp_path, node_budget=5)
        partial = max_ones_avoiding(4, IDENTITY2, cfg_small)
        assert partial.status == "lower-bound-only"
        cfg_full = SearchConfig(cache_dir=tmp_path)
        final = max_ones_avoiding(4, IDENTITY2, cfg_full)
        assert final.status == "exact"
        assert final.value == 7
        recs = load_records(tmp_path)
        assert [r.status for r in recs] == ["lower-bound-only", "exact"]

    def test_keys_do_not_collide(self, tmp_path):
        cfg = SearchConfig(cache_dir=tmp_path)
        a = max_ones_avoiding(3, IDENTITY2, cfg)
        b = max_ones_avoiding(3, ANTI2, cfg)
        c = max_ones_avoiding_minor(3, all_ones((2, 2)), cfg)
        assert len({(r.kind, r.value) for r in (a, b, c)}) >= 2
        assert len(load_records(tmp_path)) == 3

    def test_tampered_record_fails_verification(self, tmp_path):
        cfg = SearchConfig(cache_dir=tmp_path)
        max_ones_avoiding(3, IDENTITY2, cfg)
        path = records_path(tmp_path)
        data = json.loads(path.read_text())
        data["value"] = 99
        path.write_text(json.dumps(data) + "\n")
        with pytest.raises(VerificationError):
            max_ones_avoiding(3, IDENTITY2, cfg)

    def test_torn_tail_is_skipped_and_replaced(self, tmp_path):
        first = max_ones_avoiding(2, IDENTITY2)
        append_record(tmp_path, first)
        with records_path(tmp_path).open("a") as fh:
            fh.write('{"kind": "f", "n": 4')
        assert load_records(tmp_path) == [first]
        second = max_ones_avoiding(3, IDENTITY2)
        append_record(tmp_path, second)
        assert load_records(tmp_path) == [first, second]
        assert records_path(tmp_path).read_text().count("\n") == 2

    def test_unterminated_complete_line_is_kept(self, tmp_path):
        first = max_ones_avoiding(2, IDENTITY2)
        append_record(tmp_path, first)
        path = records_path(tmp_path)
        path.write_text(path.read_text().rstrip("\n"))
        assert load_records(tmp_path) == [first]
        second = max_ones_avoiding(3, IDENTITY2)
        append_record(tmp_path, second)
        assert load_records(tmp_path) == [first, second]

    def test_corrupt_line_raises_structure_error(self, tmp_path):
        records_path(tmp_path).parent.mkdir(parents=True, exist_ok=True)
        records_path(tmp_path).write_text("{not json}\n")
        with pytest.raises(StructureError):
            load_records(tmp_path)

    def test_malformed_witness_names_its_line(self, tmp_path):
        append_record(tmp_path, max_ones_avoiding(2, IDENTITY2))
        path = records_path(tmp_path)
        data = json.loads(path.read_text())
        data["witness"]["ones"] = [[3, 3]]  # outside the 2x2 extents
        path.write_text(path.read_text() + json.dumps(data) + "\n")
        with pytest.raises(StructureError, match=r"records\.jsonl:2: malformed record"):
            load_records(tmp_path)

    @pytest.mark.parametrize("one", [1.0, True])
    def test_repeated_pattern_with_a_non_integer_one_names_its_line(self, tmp_path, one):
        rec = max_ones_avoiding(2, IDENTITY2)
        append_record(tmp_path, rec)
        data = rec.to_json()
        data["pattern"]["ones"][0][0] = one
        path = records_path(tmp_path)
        path.write_text(path.read_text() + json.dumps(data) + "\n")
        with pytest.raises(StructureError, match=r"records\.jsonl:2: malformed record"):
            load_records(tmp_path)

    def test_records_with_equal_patterns_share_one_tensor(self, tmp_path):
        f = max_ones_avoiding(3, IDENTITY2)
        m = max_ones_avoiding_minor(3, IDENTITY2)
        for rec in (f, m, max_ones_avoiding(3, ANTI2)):
            append_record(tmp_path, rec)
        first, second, third = load_records(tmp_path)
        assert (first, second) == (f, m)
        assert first.pattern is second.pattern
        assert third.pattern == ANTI2

    @pytest.mark.parametrize("one", [1.0, True])
    def test_repeated_witness_with_a_non_integer_one_names_its_line(self, tmp_path, one):
        # 1.0 and true equal 1 as dict keys, so a witness holding one must
        # not be taken for the equal plain-int witness read before it
        rec = max_ones_avoiding(2, IDENTITY2)
        append_record(tmp_path, rec)
        data = rec.to_json()
        data["witness"]["ones"][0][0] = one
        path = records_path(tmp_path)
        path.write_text(path.read_text() + json.dumps(data) + "\n")
        with pytest.raises(StructureError, match=r"records\.jsonl:2: malformed record"):
            load_records(tmp_path)

    def test_records_with_equal_witnesses_share_one_tensor(self, tmp_path):
        f = max_ones_avoiding(3, IDENTITY2)
        for rec in (f, _stand_in_record("f", 3, ANTI2, 5, "exact"), f):
            append_record(tmp_path, rec)
        first, second, third = load_records(tmp_path)
        assert first == third == f
        assert first.witness is third.witness
        assert first.witness is not second.witness
        assert first.pattern is third.pattern

    def test_non_utf8_line_names_its_line(self, tmp_path):
        append_record(tmp_path, max_ones_avoiding(2, IDENTITY2))
        path = records_path(tmp_path)
        path.write_bytes(path.read_bytes() + b'{"kind": "\xff"}\n')
        with pytest.raises(StructureError, match=r"records\.jsonl:2: "):
            load_records(tmp_path)

    def test_append_waits_for_another_appender(self, tmp_path):
        first = max_ones_avoiding(2, IDENTITY2)
        second = max_ones_avoiding(3, IDENTITY2)
        with records_path(tmp_path).open("a+b") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            appender = threading.Thread(
                target=append_record, args=(tmp_path, second), daemon=True
            )
            appender.start()
            appender.join(0.2)
            assert appender.is_alive()  # blocked on the lock, nothing read yet
            fh.write((json.dumps(first.to_json(), sort_keys=True) + "\n").encode())
        appender.join(10)
        assert not appender.is_alive()
        assert load_records(tmp_path) == [first, second]

    def test_append_and_load_inverse(self, tmp_path):
        rec = max_ones_avoiding(2, IDENTITY2)
        append_record(tmp_path, rec)
        assert load_records(tmp_path) == [rec]


class TestCacheDirectoryThatIsAFile:
    """A cache directory that names an existing file is refused with
    PreconditionError before anything is read, searched or appended."""

    @pytest.fixture
    def not_dir(self, tmp_path):
        path = tmp_path / "cache"
        path.write_text("not a cache\n")
        return path

    def test_load_records(self, not_dir):
        with pytest.raises(PreconditionError) as err:
            load_records(not_dir)
        assert str(err.value) == f"cache directory {not_dir} is not a directory"

    def test_append_record(self, not_dir):
        rec = max_ones_avoiding(2, IDENTITY2)
        with pytest.raises(PreconditionError, match="is not a directory"):
            append_record(str(not_dir), rec)
        assert not_dir.read_text() == "not a cache\n"

    def test_search_config(self, not_dir):
        with pytest.raises(PreconditionError, match="is not a directory"):
            max_ones_avoiding(3, IDENTITY2, SearchConfig(cache_dir=not_dir))

    def test_search_does_not_run(self, tmp_path, monkeypatch):
        # the file appears after the config was made: the cache read refuses
        # it before the search starts
        cache = tmp_path / "cache"
        cfg = SearchConfig(cache_dir=cache)
        cache.write_text("not a cache\n")

        def no_search(*args):
            raise AssertionError("searched")

        monkeypatch.setattr(extremal, "_branch_and_bound", no_search)
        for run in (max_ones_avoiding, max_ones_avoiding_minor):
            with pytest.raises(PreconditionError, match="is not a directory"):
                run(3, IDENTITY2, cfg)
        assert cache.read_text() == "not a cache\n"


class TestExtremalRecord:
    def test_json_round_trip(self):
        rec = max_ones_avoiding(3, IDENTITY2)
        assert ExtremalRecord.from_json(rec.to_json()) == rec

    def test_verify_catches_breaches(self):
        rec = max_ones_avoiding(3, IDENTITY2)
        import dataclasses

        bad = dataclasses.replace(rec, value=rec.value + 1)
        with pytest.raises(VerificationError):
            bad.verify()
        bad = dataclasses.replace(rec, witness=all_ones((3, 3)), value=9)
        with pytest.raises(VerificationError):
            bad.verify()  # all-ones contains the identity
        bad = dataclasses.replace(rec, kind="g")
        with pytest.raises(VerificationError):
            bad.verify()
        bad = dataclasses.replace(rec, status="maybe")
        with pytest.raises(VerificationError):
            bad.verify()

    def test_verify_catches_witness_extents(self):
        rec = max_ones_avoiding(3, IDENTITY2)
        for dims in ((4, 4), (3, 3, 3)):
            ones = [c + (1,) * (len(dims) - 2) for c in rec.witness.ones]
            bad = dataclasses.replace(rec, witness=TensorMatrix(dims, ones))
            with pytest.raises(VerificationError, match="witness extents"):
                bad.verify()

    def test_verify_catches_exact_f_value_below_the_trivial_bound(self):
        rec = max_ones_avoiding(3, IDENTITY2)
        row = TensorMatrix((3, 3), [(1, 1), (1, 2)])  # avoids I2 with 2 < 3 ones
        bad = dataclasses.replace(rec, witness=row, value=2)
        with pytest.raises(VerificationError, match="trivial bounds"):
            bad.verify()
        dataclasses.replace(bad, status="lower-bound-only").verify()

    def test_verify_catches_m_witness_that_contains_the_minor(self):
        rec = max_ones_avoiding_minor(3, all_ones((2, 2)))
        bad = dataclasses.replace(rec, witness=all_ones((3, 3)), value=9)
        with pytest.raises(VerificationError, match="as an interval minor"):
            bad.verify()

    def test_malformed_json_rejected(self):
        with pytest.raises(StructureError):
            ExtremalRecord.from_json({"kind": "f"})
        good = max_ones_avoiding(2, IDENTITY2).to_json()
        for field, bad in [("n", 2.9), ("n", "2"), ("n", 2.0), ("d", True),
                           ("value", True), ("value", 3.0),
                           ("pattern", json.dumps(good["pattern"]))]:
            with pytest.raises(StructureError):
                ExtremalRecord.from_json({**good, field: bad})


class TestRatioSequence:
    def test_identity_ratios(self):
        pts = ratio_sequence(IDENTITY2, range(1, 4))
        assert [(p.n, p.value) for p in pts] == [(1, 1), (2, 3), (3, 5)]
        assert pts[0].ratio == pytest.approx(1.0)
        assert pts[1].ratio == pytest.approx(1.5)
        assert pts[2].ratio == pytest.approx(5 / 3)

    def test_single_one_all_zero(self):
        pts = ratio_sequence(SINGLE, range(1, 4))
        assert all(p.value == 0 and p.ratio == 0 for p in pts)

    def test_two_plus_ones_ratio_at_least_one(self):
        for P in (IDENTITY2, ANTI2, all_ones((2, 2))):
            for p in ratio_sequence(P, range(1, 4)):
                assert p.ratio >= 1

    def test_minor_kind(self):
        pts = ratio_sequence(all_ones((2, 2)), range(1, 4), kind="m")
        assert [p.value for p in pts] == [1, 3, 5]

    def test_budget_status_propagates(self):
        pts = ratio_sequence(
            IDENTITY2, [4], SearchConfig(node_budget=5)
        )
        assert pts[0].status == "lower-bound-only"

    def test_bad_kind(self):
        with pytest.raises(PreconditionError):
            ratio_sequence(IDENTITY2, [2], kind="x")

    def test_one_cache_read_per_call(self, tmp_path, monkeypatch):
        cfg = SearchConfig(cache_dir=tmp_path)
        want = ratio_sequence(IDENTITY2, range(1, 5), cfg)  # stores a record per n
        read = extremal._parsed_lines
        calls = []

        def counting(*args):
            calls.append(args)
            return read(*args)

        monkeypatch.setattr(extremal, "_parsed_lines", counting)
        assert ratio_sequence(IDENTITY2, range(1, 5), cfg) == want
        assert len(calls) == 1
        assert len(load_records(tmp_path)) == 4  # every n served from the cache


I3 = TensorMatrix((3, 3), [(1, 1), (2, 2), (3, 3)])
# witnesses recorded with the earlier dedicated submatrix checker in branch
# and bound; the search through the embedding engine must find the same ones
FROZEN_WITNESSES = [
    ("f", 5, I3, [
        (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 1), (2, 2), (2, 3), (2, 4),
        (2, 5), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2),
    ]),
    ("f", 5, TensorMatrix((3, 3), [(1, 1), (1, 3), (2, 2), (3, 1)]), [
        (1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 4), (2, 5), (3, 1), (3, 2),
        (3, 4), (3, 5), (4, 2), (4, 3), (4, 4), (4, 5), (5, 3), (5, 4), (5, 5),
    ]),
    ("f", 3, TensorMatrix((2, 2, 2), [(1, 1, 1), (2, 2, 2)]), [
        (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 1), (1, 2, 2), (1, 2, 3),
        (1, 3, 1), (1, 3, 2), (1, 3, 3), (2, 1, 1), (2, 1, 2), (2, 1, 3),
        (2, 2, 1), (2, 3, 1), (3, 1, 1), (3, 1, 2), (3, 1, 3), (3, 2, 1),
        (3, 3, 1),
    ]),
    ("m", 4, all_ones((2, 2)), [
        (1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (3, 1), (4, 1),
    ]),
    ("m", 4, TensorMatrix((2, 3), [(1, 1), (1, 2), (2, 2), (2, 3)]), [
        (1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1),
        (4, 2),
    ]),
    ("m", 4, TensorMatrix((3, 3), [(1, 1), (2, 2), (3, 3)]), [
        (1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1),
        (3, 2), (4, 1), (4, 2),
    ]),
    ("m", 3, TensorMatrix((2, 2, 2), [(1, 1, 1), (2, 2, 2)]), [
        (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 1), (1, 2, 2), (1, 2, 3),
        (1, 3, 1), (1, 3, 2), (1, 3, 3), (2, 1, 1), (2, 1, 2), (2, 1, 3),
        (2, 2, 1), (2, 3, 1), (3, 1, 1), (3, 1, 2), (3, 1, 3), (3, 2, 1),
        (3, 3, 1),
    ]),
]


@pytest.mark.parametrize(
    "kind, n, P, ones",
    FROZEN_WITNESSES,
    ids=["f5-I3", "f5-3x3", "f3-I2-d3", "m4-J2", "m4-2x3", "m4-I3", "m3-I2-d3"],
)
def test_frozen_witnesses(kind, n, P, ones):
    run = max_ones_avoiding if kind == "f" else max_ones_avoiding_minor
    rec = run(n, P)
    assert rec.status == "exact"
    assert rec.value == len(ones)
    assert sorted(rec.witness.ones) == ones


def test_records_verify_reports_only_the_bad_record_sharing_a_witness(tmp_path, capsys):
    # three records store one witness; only the second one's pattern is in it
    f = max_ones_avoiding(3, IDENTITY2)
    bad = ExtremalRecord(kind="f", n=3, d=2, pattern=ANTI2, value=f.value, witness=f.witness,
                         status="exact", elapsed=0.0, fingerprint=FP)
    m = ExtremalRecord(kind="m", n=3, d=2, pattern=IDENTITY2, value=f.value, witness=f.witness,
                       status="exact", elapsed=0.0, fingerprint=FP)
    assert contains_pattern(f.witness, ANTI2) and not has_interval_minor(f.witness, IDENTITY2)
    for rec in (f, bad, m):
        append_record(tmp_path, rec)
    first, second, third = load_records(tmp_path)
    assert first.witness is second.witness is third.witness
    assert main(["records", "verify", "--cache-dir", str(tmp_path), "--format", "json"]) == 4
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "checked": 3, "failures": [{"index": 1, "error": "stored witness contains the pattern"}]
    }


def test_records_verify_spends_pinned_nodes(tmp_path, capsys, monkeypatch):
    # the f witnesses' embedding searches try 349 host ones inside their
    # windows; trying every host 1 past the last image took 586
    for kind, n, P, ones in FROZEN_WITNESSES:
        append_record(tmp_path, ExtremalRecord(
            kind=kind, n=n, d=P.d, pattern=P, value=len(ones),
            witness=TensorMatrix((n,) * P.d, ones), status="exact", elapsed=0.0,
            fingerprint=FP,
        ))
    nodes = 0
    spend = containment._Budget.spend

    def counting(self):
        nonlocal nodes
        nodes += 1
        spend(self)

    monkeypatch.setattr(containment._Budget, "spend", counting)
    assert main(["records", "verify", "--cache-dir", str(tmp_path)]) == 0
    assert "all records verified" in capsys.readouterr().out
    assert nodes == 349


def test_f_search_builds_its_plan_once(monkeypatch):
    plan, search = containment._embedding_plan, containment._embedding
    built = []
    followed = []

    def planning(*args, **kwargs):
        built.append(plan(*args, **kwargs))
        return built[-1]

    def searching(host, plan, *args, **kwargs):
        followed.append(plan)
        return search(host, plan, *args, **kwargs)

    for module in (containment, extremal):
        monkeypatch.setattr(module, "_embedding_plan", planning)
        monkeypatch.setattr(module, "_embedding", searching)
    rec = max_ones_avoiding(4, TensorMatrix((3, 3), [(1, 2), (2, 3), (3, 1)]))
    assert rec.value == 12
    # one plan for every checker call of the search, each pinning its new
    # cell, and one for the check of the found witness
    assert len(built) == 2
    assert len(followed) > 100
    assert all(p is built[0] for p in followed[:-1]) and followed[-1] is built[1]


def test_m_search_builds_each_factor_table_once():
    containment._kept_factor_tables.cache_clear()
    with mock.patch.object(
        containment, "_factor_tables", wraps=containment._factor_tables
    ) as spy:
        rec = max_ones_avoiding_minor(3, TensorMatrix((2, 2, 2), [(1, 1, 1), (2, 2, 2)]))
    assert rec.value == 19
    # one call per leading axis (n, k, stride, fixed ends), each making the
    # tables of both tuples of ends
    assert sorted(call.args for call in spy.call_args_list) == [(3, 2, 1, ()), (3, 2, 2, ())]
