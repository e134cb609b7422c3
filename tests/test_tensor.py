"""Core tensor type, structural operations, and serialization."""

import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patternforge.errors import RangeError, StructureError, TensorParseError
from patternforge.tensor import (
    PermutationTensor,
    TensorMatrix,
    all_ones,
    antidiagonal,
    contract,
    corner_ones,
    cross_section,
    kronecker,
    parse_tensor,
    serialize_tensor,
    tensor_from_json,
    tensor_to_json,
)

from oracles import tensor_checks_oracle

# -- oracles -----------------------------------------------------------------


def dense(A: TensorMatrix) -> np.ndarray:
    """Literal dense rendering, independent of the class internals."""
    arr = np.zeros(A.dims, dtype=np.int8)
    for c in A.ones:
        arr[tuple(i - 1 for i in c)] = 1
    return arr


def from_dense(arr: np.ndarray) -> TensorMatrix:
    ones = [tuple(int(i) + 1 for i in idx) for idx in zip(*np.nonzero(arr))]
    return TensorMatrix(arr.shape, ones)


def contract_oracle(A: TensorMatrix, axis: int, lo: int, hi: int) -> TensorMatrix:
    """OR-of-slices on the dense array."""
    arr = dense(A)
    ax = axis - 1
    merged = np.moveaxis(arr, ax, 0)
    block = merged[lo - 1 : hi].max(axis=0, keepdims=True)
    out = np.concatenate([merged[: lo - 1], block, merged[hi:]], axis=0)
    return from_dense(np.moveaxis(out, 0, ax))


# -- TensorMatrix basics -------------------------------------------------------


class TestTensorMatrix:
    def test_value_semantics(self):
        a = TensorMatrix((2, 3), [(1, 2), (2, 3)])
        b = TensorMatrix([2, 3], [(2, 3), (1, 2)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != TensorMatrix((2, 3), [(1, 2)])

    def test_validation(self):
        with pytest.raises(StructureError):
            TensorMatrix((), [])
        with pytest.raises(StructureError):
            TensorMatrix((2, 0), [])
        with pytest.raises(StructureError):
            TensorMatrix((2, 2), [(1, 1, 1)])
        with pytest.raises(RangeError):
            TensorMatrix((2, 2), [(0, 1)])
        with pytest.raises(RangeError):
            TensorMatrix((2, 2), [(1, 3)])
        with pytest.raises(StructureError):
            TensorMatrix((2, 2), [(1, 1), (1, 1)])

    def test_two_faults_report_the_first_coordinate(self):
        with pytest.raises(StructureError, match="has 3 components"):
            TensorMatrix((2, 2), [(1, 1, 1), (3, 1)])
        with pytest.raises(RangeError, match=re.escape("(3, 1)")):
            TensorMatrix((2, 2), [(3, 1), (1, 1), (1, 1)])
        with pytest.raises(StructureError, match="duplicate"):
            TensorMatrix((2, 2), [(1, 1), (1, 1), (0, 1)])
        with pytest.raises(StructureError, match="has 3 components"):
            TensorMatrix((2, 2), [(1, 1, 9)])  # length before range
        # every coordinate is converted before any is checked
        with pytest.raises(ValueError):
            TensorMatrix((2, 2), [(1, 1, 1), ("x", 1)])

    def test_count_in_box_matches_scan(self):
        rng = np.random.default_rng(7)
        for d, _ in itertools.product(range(1, 5), range(20)):
            dims = tuple(int(n) for n in rng.integers(1, 6, size=d))
            coords = [
                tuple(int(x) for x in c)
                for c in np.argwhere(rng.random(dims) < 0.3) + 1
            ]
            A = TensorMatrix(dims, coords)
            for _ in range(25):
                # boxes may reach past the extents and may have lo > hi
                lo = tuple(int(rng.integers(0, n + 2)) for n in dims)
                hi = tuple(int(rng.integers(0, n + 2)) for n in dims)
                expected = sum(
                    1 for c in A.ones if all(a <= x <= b for x, a, b in zip(c, lo, hi))
                )
                assert A.count_in_box(lo, hi) == expected
                assert A.any_in_box(lo, hi) == (expected > 0)

    def test_count_in_box_sparse_path(self):
        A = TensorMatrix((4, 4), [(1, 1), (2, 3), (4, 4)])
        assert A.count_in_box((1, 1), (2, 3)) == 2
        assert A.count_in_box((3, 1), (3, 4)) == 0  # no one has axis-1 value 3
        assert A.count_in_box((2, 1), (2, 2)) == 0  # ends before the slab's one
        assert A.count_in_box((2, 4), (4, 4)) == 1  # starts after the slab's one
        B = TensorMatrix((3, 3), [(1, 1), (3, 3)])
        assert B.count_in_box((0, 0), (3, 3)) == 2  # boxes may leave the extents
        assert B.count_in_box((1, 1), (4, 4)) == 2

    def test_box_query_allocates_nothing_per_cell(self):
        A = TensorMatrix((4000, 4000), [(i, i) for i in range(1, 4000, 400)])
        tracemalloc.start()
        try:
            assert A.count_in_box((1, 1), (4000, 4000)) == 10
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_ones_sorted_is_a_fresh_list(self):
        A = TensorMatrix((3, 3), [(3, 1), (1, 2), (2, 2)])
        assert A.count_in_box((1, 1), (2, 2)) == 2
        got = A.ones_sorted()
        assert got == [(1, 2), (2, 2), (3, 1)]
        got.pop()
        got.insert(0, (1, 1))
        assert A.ones_sorted() == [(1, 2), (2, 2), (3, 1)]
        assert A.count_in_box((1, 1), (2, 2)) == 2
        assert A.count_in_box((3, 1), (3, 1)) == 1

    def test_empty_box(self):
        A = TensorMatrix((3, 3), [(2, 2)])
        assert A.count_in_box((3, 1), (2, 3)) == 0


FAULTS = (None, "short", "long", "below", "above", "duplicate")
FORMS = {
    "tuple": tuple,
    "list": list,
    "numpy": lambda c: np.array(c, dtype=np.int64),
    # components that int() converts: bools for 0 and 1, floats
    "bool": lambda c: [bool(x) if x in (0, 1) else x for x in c],
    "float": lambda c: [float(x) for x in c],
}
CONTAINERS = {
    "list": lambda ones: lambda: list(ones),
    "tuple": lambda ones: lambda: tuple(ones),
    "generator": lambda ones: lambda: (c for c in ones),
}


@st.composite
def checked_inputs(draw):
    """(dims, fresh-ones factory, fault): d in 1..4, valid coordinates in
    mixed element forms, and at most one faulty coordinate."""
    d = draw(st.integers(1, 4))
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=d, max_size=d)))
    cells = list(itertools.product(*(range(1, n + 1) for n in dims)))
    fault = draw(st.sampled_from(FAULTS))
    coords = draw(st.lists(
        st.sampled_from(cells), unique=True,
        min_size=1 if fault else 0, max_size=min(8, len(cells)),
    ))
    if fault:
        bad = list(draw(st.sampled_from(coords)))
        ax = draw(st.integers(0, d - 1))
        if fault == "short":
            bad.pop(ax)
        elif fault == "long":
            bad.insert(ax, draw(st.integers(1, dims[ax])))
        elif fault == "below":
            bad[ax] = draw(st.integers(-3, 0))
        elif fault == "above":
            bad[ax] = dims[ax] + draw(st.integers(1, 3))
        coords.insert(draw(st.integers(0, len(coords))), tuple(bad))
    forms = draw(st.lists(st.sampled_from(sorted(FORMS)),
                          min_size=len(coords), max_size=len(coords)))
    ones = [FORMS[f](c) for f, c in zip(forms, coords)]
    dims = FORMS[draw(st.sampled_from(sorted(FORMS)))](dims)
    return dims, CONTAINERS[draw(st.sampled_from(sorted(CONTAINERS)))](ones), fault


def outcome(build):
    try:
        return "ok", build()
    except (StructureError, RangeError) as exc:
        return type(exc), str(exc)


class TestConstructorChecks:
    """TensorMatrix against the per-coordinate loop in oracles.py.

    With one fault the two raise the same exception type and message.  With
    two faults both report the first faulty coordinate in input order (for a
    repeat, its second occurrence) and, within one coordinate, a wrong length
    before a value outside the extents.  One case differs: a component that
    int() rejects is raised before any fault at an earlier coordinate, since
    the constructor converts every coordinate before it checks any.
    """

    def test_components_that_are_not_plain_ints_go_through_int(self):
        A = TensorMatrix((3, 3), [(True, 2.9), (np.int64(3), np.int8(1)), (2, 3)])
        assert A.ones == {(1, 2), (3, 1), (2, 3)}
        assert all(type(c) is int for coord in A.ones for c in coord)
        with pytest.raises(StructureError, match=r"duplicate coordinate \(1, 1\)"):
            TensorMatrix((2, 2), [(1, 1), (True, 1.0)])
        with pytest.raises(RangeError, match=r"coordinate \(0, 1\) outside"):
            TensorMatrix((2, 2), [(False, 1)])

    @settings(max_examples=400, derandomize=True)
    @given(checked_inputs())
    def test_matches_per_coordinate_oracle(self, case):
        dims, make_ones, fault = case

        def build():
            A = TensorMatrix(dims, make_ones())
            assert all(type(c) is int for coord in A.ones for c in coord)
            return A.dims, A.ones

        got = outcome(build)
        assert got == outcome(lambda: tensor_checks_oracle(dims, make_ones()))
        assert (got[0] == "ok") == (fault is None)


class TestPermutationTensor:
    def test_accepts_valid(self):
        M = TensorMatrix((3, 3, 3), [(1, 2, 3), (2, 3, 1), (3, 1, 2)])
        P = PermutationTensor(M)
        assert P.k == 3 and P.d == 3

    def test_rejects_non_square(self):
        with pytest.raises(StructureError, match=re.escape(
            "permutation matrix must be square, got (2, 3)"
        )):
            PermutationTensor(TensorMatrix((2, 3), [(1, 1), (2, 2)]))

    def test_rejects_wrong_count(self):
        with pytest.raises(StructureError, match=re.escape(
            "permutation matrix of side 2 needs exactly 2 ones, got 1"
        )):
            PermutationTensor(TensorMatrix((2, 2), [(1, 1)]))
        with pytest.raises(StructureError, match="got 4"):
            PermutationTensor(TensorMatrix((3, 3), [(1, 1), (2, 2), (3, 3), (1, 2)]))

    @pytest.mark.parametrize("axis, ones", [
        (2, [(1, 1, 1), (2, 1, 2), (3, 3, 3)]),
        (3, [(1, 1, 1), (2, 2, 1), (3, 3, 3)]),
        (3, [(1, 2, 2), (2, 3, 2), (3, 1, 2)]),
    ])
    def test_rejects_repeated_value_with_k_ones(self, axis, ones):
        with pytest.raises(StructureError, match=re.escape(
            f"axis {axis}: some cross section does not contain exactly one 1"
        )):
            PermutationTensor(TensorMatrix((3, 3, 3), ones))

    def test_rejects_repeated_coordinate_on_axis(self):
        # two ones share row 1 -> some row cross section has two ones
        with pytest.raises(StructureError):
            PermutationTensor(TensorMatrix((2, 2), [(1, 1), (1, 2)]))


# -- cross sections and contraction -------------------------------------------


class TestCrossSection:
    def test_matches_dense_slice(self):
        A = TensorMatrix((3, 2, 4), [(1, 1, 1), (1, 2, 4), (3, 1, 2), (2, 2, 2)])
        for axis in (1, 2, 3):
            for idx in range(1, A.dims[axis - 1] + 1):
                got = cross_section(A, axis, idx)
                want = from_dense(np.take(dense(A), idx - 1, axis=axis - 1))
                assert got == want

    def test_rejects_one_dimensional_input(self):
        with pytest.raises(RangeError):
            cross_section(TensorMatrix((4,), [(2,)]), 1, 2)

    def test_rejects_bad_axis_or_index(self):
        A = TensorMatrix((2, 2), [(1, 1)])
        with pytest.raises(RangeError):
            cross_section(A, 0, 1)
        with pytest.raises(RangeError):
            cross_section(A, 3, 1)
        with pytest.raises(RangeError):
            cross_section(A, 1, 3)


@st.composite
def small_tensors(draw):
    d = draw(st.integers(1, 3))
    dims = tuple(draw(st.integers(1, 4)) for _ in range(d))
    cells = list(itertools.product(*(range(1, n + 1) for n in dims)))
    chosen = draw(st.lists(st.sampled_from(cells), unique=True, max_size=len(cells)))
    return TensorMatrix(dims, chosen)


class TestContract:
    def test_matches_oracle(self):
        A = TensorMatrix((4, 3), [(1, 1), (2, 2), (3, 2), (4, 3), (2, 3)])
        assert contract(A, 1, 2, 3) == contract_oracle(A, 1, 2, 3)
        assert contract(A, 2, 1, 3) == contract_oracle(A, 2, 1, 3)

    @settings(max_examples=120, derandomize=True)
    @given(small_tensors(), st.data())
    def test_matches_oracle_random(self, A, data):
        axis = data.draw(st.integers(1, A.d))
        n = A.dims[axis - 1]
        lo = data.draw(st.integers(1, n))
        hi = data.draw(st.integers(lo, n))
        assert contract(A, axis, lo, hi) == contract_oracle(A, axis, lo, hi)

    def test_identity_when_interval_is_single(self):
        A = TensorMatrix((3, 3), [(1, 2), (3, 3)])
        assert contract(A, 1, 2, 2) == A

    def test_full_interval_collapses_axis(self):
        A = TensorMatrix((3, 2), [(1, 1), (2, 2), (3, 1)])
        got = contract(A, 1, 1, 3)
        assert got == TensorMatrix((1, 2), [(1, 1), (1, 2)])

    def test_disjoint_contractions_commute(self):
        A = TensorMatrix((5, 4), [(1, 1), (2, 3), (4, 2), (5, 4), (3, 3)])
        ab = contract(contract(A, 1, 1, 2), 1, 3, 4)  # second interval shifted
        ba = contract(contract(A, 1, 4, 5), 1, 1, 2)
        assert ab == ba

    def test_rejects_bad_interval(self):
        A = TensorMatrix((3, 3), [(1, 1)])
        with pytest.raises(RangeError):
            contract(A, 1, 2, 1)
        with pytest.raises(RangeError):
            contract(A, 1, 0, 2)
        with pytest.raises(RangeError):
            contract(A, 1, 1, 4)


# -- kronecker -----------------------------------------------------------------


class TestKronecker:
    def test_two_by_two_antidiagonals(self):
        got = kronecker(antidiagonal(2, 2), antidiagonal(2, 2))
        assert got == TensorMatrix((4, 4), [(1, 4), (2, 3), (3, 2), (4, 1)])

    def test_matches_numpy_kron_2d(self):
        M = TensorMatrix((2, 3), [(1, 2), (2, 1), (2, 3)])
        N = TensorMatrix((3, 2), [(1, 1), (2, 2), (3, 1)])
        got = kronecker(M, N)
        assert dense(got).tolist() == np.kron(dense(M), dense(N)).tolist()

    @settings(max_examples=60, derandomize=True)
    @given(small_tensors(), st.data())
    def test_matches_numpy_kron_random(self, M, data):
        dims = tuple(data.draw(st.integers(1, 3)) for _ in range(M.d))
        cells = list(itertools.product(*(range(1, n + 1) for n in dims)))
        chosen = data.draw(
            st.lists(st.sampled_from(cells), unique=True, max_size=len(cells))
        )
        N = TensorMatrix(dims, chosen)
        got = kronecker(M, N)
        # numpy kron flattens block structure the same way for any nd arrays
        assert np.array_equal(dense(got), np.kron(dense(M), dense(N)))

    def test_ones_count_multiplies(self):
        M = antidiagonal(3, 2)
        N = antidiagonal(4, 2)
        assert kronecker(M, N).ones_count == M.ones_count * N.ones_count

    def test_dimension_mismatch(self):
        with pytest.raises(StructureError):
            kronecker(antidiagonal(2, 2), antidiagonal(2, 3))


# -- antidiagonal ----------------------------------------------------------------


class TestAntidiagonal:
    def test_d2_is_reversed_identity(self):
        A = antidiagonal(3, 2)
        assert A.ones == frozenset({(1, 3), (2, 2), (3, 1)})

    def test_ones_count_is_binomial(self):
        for d in range(1, 5):
            for s in range(1, 9):
                A = antidiagonal(s, d)
                assert A.ones_count == math.comb(s + d - 2, d - 1), (s, d)

    @pytest.mark.parametrize("s, d", [(1, 1), (5, 1), (4, 2), (4, 3), (3, 4), (6, 4)])
    def test_membership_by_sum(self, s, d):
        A = antidiagonal(s, d)
        for c in itertools.product(range(1, s + 1), repeat=d):
            assert A.has_one(c) == (sum(c) == s + d - 1)

    def test_every_line_has_at_most_one(self):
        # fixing all but one coordinate leaves at most a single 1
        A = antidiagonal(5, 3)
        for axis in range(3):
            rest = [c[:axis] + c[axis + 1 :] for c in A.ones]
            assert len(rest) == len(set(rest))

    def test_rejects_bad_arguments(self):
        with pytest.raises(RangeError):
            antidiagonal(0, 2)
        with pytest.raises(RangeError):
            antidiagonal(2, 0)


class TestCornerOnes:
    def test_plus_shape_has_no_corners(self):
        P = TensorMatrix((3, 3), [(1, 2), (2, 1), (2, 2), (2, 3), (3, 2)])
        assert corner_ones(P) == []

    def test_all_ones_2x2(self):
        P = all_ones((2, 2))
        assert corner_ones(P) == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_extent_one_axes_count_as_extremal(self):
        P = TensorMatrix((1, 3), [(1, 1), (1, 2), (1, 3)])
        assert corner_ones(P) == [(1, 1), (1, 3)]


# -- serialization ----------------------------------------------------------------


class TestTextFormat:
    def test_round_trip(self):
        A = TensorMatrix((3, 2, 4), [(1, 1, 1), (3, 2, 4), (2, 1, 3)])
        assert parse_tensor(serialize_tensor(A)) == A

    @settings(max_examples=80, derandomize=True)
    @given(small_tensors())
    def test_round_trip_random(self, A):
        assert parse_tensor(serialize_tensor(A)) == A

    def test_comments_and_blank_lines(self):
        text = """
        # a 2x2 with one 1
        dims: 2 2   # header comment
        1 2  # trailing comment
        """
        assert parse_tensor(text) == TensorMatrix((2, 2), [(1, 2)])

    def test_error_carries_line_number(self):
        with pytest.raises(TensorParseError) as exc:
            parse_tensor("dims: 2 2\n1 1\n1 1\n")
        assert exc.value.line == 3
        with pytest.raises(TensorParseError) as exc:
            parse_tensor("dims: 2 2\n3 1\n")
        assert exc.value.line == 2

    def test_missing_or_malformed_header(self):
        with pytest.raises(TensorParseError):
            parse_tensor("")
        with pytest.raises(TensorParseError):
            parse_tensor("1 1\n")
        with pytest.raises(TensorParseError):
            parse_tensor("dims: 2 x\n")
        with pytest.raises(TensorParseError):
            parse_tensor("dims: 2 0\n")

    def test_wrong_arity_and_non_integer(self):
        with pytest.raises(TensorParseError):
            parse_tensor("dims: 2 2\n1\n")
        with pytest.raises(TensorParseError):
            parse_tensor("dims: 2 2\n1 a\n")

    def test_serialized_ones_are_sorted(self):
        A = TensorMatrix((2, 2), [(2, 1), (1, 2)])
        body = serialize_tensor(A).splitlines()[1:]
        assert body == ["1 2", "2 1"]


class TestJsonFormat:
    def test_round_trip(self):
        A = TensorMatrix((2, 3), [(1, 3), (2, 1)])
        assert tensor_from_json(tensor_to_json(A)) == A
        assert tensor_from_json(json.dumps(tensor_to_json(A))) == A

    def test_zero_matrix(self):
        A = TensorMatrix((2, 2))
        assert tensor_to_json(A) == {"dims": [2, 2], "ones": []}
        assert tensor_from_json({"dims": [2, 2]}) == A

    def test_rejects_bad_payloads(self):
        with pytest.raises(TensorParseError):
            tensor_from_json("{not json")
        with pytest.raises(TensorParseError):
            tensor_from_json({"ones": []})
        with pytest.raises(TensorParseError):
            tensor_from_json({"dims": [2, 2], "ones": [[3, 1]]})
        with pytest.raises(TensorParseError):
            tensor_from_json({"dims": [2, 2], "ones": [[1, 1], [1, 1]]})
        # int() would truncate or coerce these numbers instead of rejecting them
        for payload in (
            {"dims": [2.5, 2]},
            {"dims": [2.0, 2]},
            {"dims": [True, 2]},
            {"dims": ["2", 2]},
            {"dims": [2, 2], "ones": [[1.9, 1]]},
            {"dims": [2, 2], "ones": [[True, 1]]},
            {"dims": [2, 2], "ones": ["12"]},
        ):
            with pytest.raises(TensorParseError):
                tensor_from_json(payload)


class TestAllOnes:
    def test_counts(self):
        assert all_ones((2, 3)).ones_count == 6
        assert all_ones((2, 2, 2)).ones_count == 8

    def test_rejects_nonpositive(self):
        with pytest.raises(RangeError):
            all_ones((2, 0))
