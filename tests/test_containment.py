"""Both containment deciders against literal-definition oracles."""

import inspect
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from oracles import contains_via_contraction_oracle
from patternforge import containment
from patternforge.construct import identity_permutation, random_permutation
from patternforge.containment import (
    GridWitness,
    contains_interval_minor,
    contains_pattern,
    extend_to_partition,
    find_embedding,
    has_interval_minor,
    verify_witness,
)
from patternforge.errors import (
    BudgetExceededError,
    PreconditionError,
    StructureError,
)
from patternforge.probability import side_threshold
from patternforge.tensor import TensorMatrix, all_ones, antidiagonal


IDENTITY2 = TensorMatrix((2, 2), [(1, 1), (2, 2)])


@st.composite
def tensor_pairs(draw, host_max=4, pat_max=2, d_max=3):
    d = draw(st.integers(1, d_max))
    hdims = tuple(draw(st.integers(1, host_max)) for _ in range(d))
    pdims = tuple(draw(st.integers(1, pat_max)) for _ in range(d))
    hcells = list(itertools.product(*(range(1, n + 1) for n in hdims)))
    pcells = list(itertools.product(*(range(1, n + 1) for n in pdims)))
    hones = draw(st.lists(st.sampled_from(hcells), unique=True, max_size=len(hcells)))
    pones = draw(st.lists(st.sampled_from(pcells), unique=True, max_size=len(pcells)))
    return TensorMatrix(hdims, hones), TensorMatrix(pdims, pones)


# -- ordinary containment ------------------------------------------------------


class TestContainsPattern:
    def test_all_ones_contains_identity(self):
        assert contains_pattern(all_ones((2, 2)), IDENTITY2)

    def test_antidiagonal_avoids_identity(self):
        assert not contains_pattern(antidiagonal(3, 2), IDENTITY2)

    def test_nonzero_contains_single_one(self):
        A = TensorMatrix((3, 3), [(2, 3)])
        assert contains_pattern(A, TensorMatrix((1, 1), [(1, 1)]))

    def test_zero_pattern_contained_iff_extents_fit(self):
        A = TensorMatrix((2, 3), [(1, 1)])
        assert contains_pattern(A, TensorMatrix((2, 2)))
        assert not contains_pattern(A, TensorMatrix((3, 1)))

    def test_pattern_with_more_ones_than_the_frame_limit(self):
        # the search maps one 1 per step, 1,100 steps deep
        I = identity_permutation(1100, 2).matrix
        assert contains_pattern(I, I)

    def test_boundary_room_is_enforced(self):
        # lone pattern one at (2,2) cannot land on (1,1): no strictly
        # increasing map sends 2 to 1
        A = TensorMatrix((2, 2), [(1, 1)])
        P = TensorMatrix((2, 2), [(2, 2)])
        assert not contains_pattern(A, P)
        assert oracles.contains_oracle(A, P) is False

    def test_gap_room_is_enforced(self):
        # pattern ones in columns 1 and 3 need host columns >= 2 apart
        P = TensorMatrix((1, 3), [(1, 1), (1, 3)])
        A = TensorMatrix((1, 3), [(1, 2), (1, 3)])
        assert not contains_pattern(A, P)
        B = TensorMatrix((1, 3), [(1, 1), (1, 3)])
        assert contains_pattern(B, P)

    def test_equal_pattern_coordinates_share_host_line(self):
        # both pattern ones sit in row 1, so their hosts must share a row
        P = TensorMatrix((1, 2), [(1, 1), (1, 2)])
        A = TensorMatrix((2, 2), [(1, 1), (2, 2)])
        assert not contains_pattern(A, P)

    def test_dimension_mismatch(self):
        with pytest.raises(StructureError):
            contains_pattern(all_ones((2, 2)), all_ones((2, 2, 2)))

    def test_budget_exhaustion_raises(self):
        A = all_ones((4, 4))
        P = TensorMatrix((2, 2), [(1, 2), (2, 1)])
        with pytest.raises(BudgetExceededError):
            find_embedding(A, P, node_budget=1)

    def test_search_tries_only_host_ones_after_the_last_image(self):
        # (1,1) -> (1,1) is node 1; the window of (2,2) starts at row 2, so
        # the search skips row 1 and tries (2,1) and (2,2) as nodes 2 and 3
        emb = find_embedding(all_ones((4, 4)), IDENTITY2, node_budget=3)
        assert emb == [((1, 1), (1, 1)), ((2, 2), (2, 2))]
        with pytest.raises(BudgetExceededError):
            find_embedding(all_ones((4, 4)), IDENTITY2, node_budget=2)

    @settings(max_examples=150, derandomize=True)
    @given(tensor_pairs())
    def test_matches_brute_force(self, pair):
        A, P = pair
        if P.is_zero:
            expected = all(k <= n for k, n in zip(P.dims, A.dims))
        else:
            expected = oracles.contains_oracle(A, P)
        assert contains_pattern(A, P) == expected
        assert find_embedding(A, P) == oracles.first_embedding_oracle(A, P)

    @settings(max_examples=80, derandomize=True)
    @given(tensor_pairs(), st.data())
    def test_monotone_under_added_ones(self, pair, data):
        A, P = pair
        if not contains_pattern(A, P):
            return
        cells = list(itertools.product(*(range(1, n + 1) for n in A.dims)))
        extra = data.draw(
            st.lists(st.sampled_from(cells), unique=True, max_size=len(cells))
        )
        A2 = TensorMatrix(A.dims, set(A.ones) | set(extra))
        assert contains_pattern(A2, P)

    def test_embedding_is_a_real_certificate(self):
        A = TensorMatrix((4, 4), [(1, 2), (2, 4), (3, 1), (4, 3)])
        P = TensorMatrix((2, 2), [(1, 1), (2, 2)])
        emb = find_embedding(A, P)
        assert emb is not None
        for (pc, hc) in emb:
            assert A.has_one(hc)
        # strictly increasing per axis wherever pattern coordinates increase
        for (p1, h1), (p2, h2) in itertools.combinations(emb, 2):
            for ax in range(2):
                if p1[ax] < p2[ax]:
                    assert h1[ax] < h2[ax]
                elif p1[ax] == p2[ax]:
                    assert h1[ax] == h2[ax]


@st.composite
def hosts_avoiding_before_last(draw):
    """(dims, P, host): a lex-sorted host whose ones before the last avoid P."""
    d = draw(st.sampled_from([2, 3]))
    hdims = tuple(draw(st.integers(2, 6 - d)) for _ in range(d))
    pdims = tuple(draw(st.integers(1, 5 - d)) for _ in range(d))
    pcells = list(itertools.product(*(range(1, k + 1) for k in pdims)))
    P = TensorMatrix(pdims, draw(st.sets(st.sampled_from(pcells), min_size=1)))
    hcells = list(itertools.product(*(range(1, n + 1) for n in hdims)))
    cells = sorted(draw(st.sets(st.sampled_from(hcells), min_size=1)))
    host: list = []
    for c in cells[:-1]:
        if not oracles.contains_oracle(TensorMatrix(hdims, host + [c]), P):
            host.append(c)
    return hdims, P, host + [cells[-1]]


class TestEmbeddingThroughLast:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(hosts_avoiding_before_last())
    def test_matches_brute_force(self, case):
        dims, P, host = case
        plan = containment._embedding_plan(P, dims, through_last=True)
        emb = containment._embedding(host[:-1], plan, through=host[-1])
        assert (emb is not None) == oracles.contains_oracle(TensorMatrix(dims, host), P)
        if emb is not None:
            assert [pc for pc, _ in emb] == P.ones_sorted()
            assert host[-1] in [hc for _, hc in emb]
            assert find_embedding(TensorMatrix(dims, host), P) is not None


# hosts whose search meets a window that holds no host 1 (every image of
# (2, 2) needs row 2 or later), and one whose axis-1 slice for (2, 2)
# skips the host ones of row 1 that follow the image of (1, 1)
EMPTY_WINDOW = TensorMatrix((3, 3), [(1, 1), (1, 2), (1, 3)])
SKIPPING_SLICE = TensorMatrix((3, 3), [(1, 1), (1, 2), (1, 3), (3, 3)])
# 1s of P that share a row and a column: (1, 2) takes the image row of
# (1, 1), and (2, 2) the image column of (1, 2); the host's first two rows
# hold no such pair, so the first embedding starts at (2, 1)
SHARING = TensorMatrix((2, 2), [(1, 1), (1, 2), (2, 2)])
SHARING_HOST = TensorMatrix((3, 3), [(1, 1), (2, 1), (2, 3), (3, 3)])
# with through_last the pinned (2, 2) shares its column with (1, 2) and its
# row with (2, 1), so those two must land in the column and row of (3, 3)
PINNED_SHARING = TensorMatrix((2, 2), [(1, 2), (2, 1), (2, 2)])
PINNED_HOST = TensorMatrix((3, 3), [(1, 3), (2, 1), (3, 1), (3, 3)])


class TestWindowedEmbedding:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(tensor_pairs(host_max=5, pat_max=3), st.booleans())
    @example(pair=(EMPTY_WINDOW, IDENTITY2), through_last=False)
    @example(pair=(EMPTY_WINDOW, IDENTITY2), through_last=True)
    @example(pair=(SKIPPING_SLICE, IDENTITY2), through_last=False)
    @example(pair=(SKIPPING_SLICE, IDENTITY2), through_last=True)
    @example(pair=(SHARING_HOST, SHARING), through_last=False)
    @example(pair=(SHARING_HOST, SHARING), through_last=True)
    @example(pair=(PINNED_HOST, PINNED_SHARING), through_last=True)
    @example(pair=(PINNED_HOST, PINNED_SHARING), through_last=False)
    def test_first_embedding_matches_oracle(self, pair, through_last):
        A, P = pair
        host = A.ones_sorted()
        through = host.pop() if through_last and host else None
        plan = containment._embedding_plan(P, A.dims, through_last=through is not None)
        got = containment._embedding(host, plan, through=through)
        assert got == oracles.first_embedding_oracle(A, P, through_last)

    def test_a_node_is_a_host_one_tried_inside_its_window(self):
        assert find_embedding(EMPTY_WINDOW, IDENTITY2, node_budget=3) is None
        with pytest.raises(BudgetExceededError):
            find_embedding(EMPTY_WINDOW, IDENTITY2, node_budget=2)
        # (1,1) -> (1,1), then (3,3) is the one host 1 in the window of (2,2)
        emb = find_embedding(SKIPPING_SLICE, IDENTITY2, node_budget=2)
        assert emb == [((1, 1), (1, 1)), ((2, 2), (3, 3))]
        with pytest.raises(BudgetExceededError):
            find_embedding(SKIPPING_SLICE, IDENTITY2, node_budget=1)


# -- grid witnesses -------------------------------------------------------------


class TestGridWitness:
    def test_validation(self):
        with pytest.raises(StructureError):
            GridWitness([])
        with pytest.raises(StructureError):
            GridWitness([[]])
        with pytest.raises(StructureError):
            GridWitness([[(2, 1)]])
        with pytest.raises(StructureError):
            GridWitness([[(0, 1)]])
        with pytest.raises(StructureError):
            GridWitness([[(1, 2), (2, 3)]])  # overlap
        with pytest.raises(StructureError):
            GridWitness([[(3, 4), (1, 2)]])  # out of order

    def test_json_round_trip(self):
        W = GridWitness([[(1, 1), (3, 3)], [(1, 2), (4, 4)]])
        assert GridWitness.from_json(W.to_json()) == W
        assert W.to_json() == {"axes": [[[1, 1], [3, 3]], [[1, 2], [4, 4]]]}

    def test_locate(self):
        W = GridWitness([[(1, 1), (3, 3)], [(1, 2), (4, 4)]])
        assert W.locate((1, 2)) == (1, 1)
        assert W.locate((3, 4)) == (2, 2)
        assert W.locate((2, 1)) is None  # row 2 in no interval
        assert W.locate((1, 3)) is None

    def test_check_against_counts_and_bounds(self):
        A = all_ones((3, 3))
        B = all_ones((2, 2))
        with pytest.raises(StructureError):
            verify_witness(A, B, GridWitness([[(1, 1)], [(1, 1), (2, 2)]]))
        with pytest.raises(StructureError):
            verify_witness(A, B, GridWitness([[(1, 1), (2, 4)], [(1, 1), (2, 2)]]))


class TestVerifyWitness:
    def test_identity_fails_allones_witness(self):
        W = GridWitness([[(1, 1), (2, 2)], [(1, 1), (2, 2)]])
        assert verify_witness(IDENTITY2, all_ones((2, 2)), W) is False

    def test_zero_pattern_vacuously_true(self):
        W = GridWitness([[(1, 1), (2, 2)], [(1, 1), (2, 2)]])
        assert verify_witness(IDENTITY2, TensorMatrix((2, 2)), W) is True

    def test_accepts_what_the_decider_returns(self):
        A = TensorMatrix((3, 3), [(1, 1), (1, 3), (3, 1), (3, 3)])
        W = contains_interval_minor(A, all_ones((2, 2)))
        assert W is not None
        assert verify_witness(A, all_ones((2, 2)), W)


class TestExtendToPartition:
    def test_gaps_attach_to_preceding_interval(self):
        W = GridWitness([[(2, 2), (4, 4)], [(1, 1), (3, 3)]])
        ext = extend_to_partition(W, (5, 4))
        assert ext.axes[0] == ((1, 3), (4, 5))
        assert ext.axes[1] == ((1, 2), (3, 4))

    def test_partition_covers_everything(self):
        W = GridWitness([[(2, 3)], [(1, 1), (4, 5)]])
        ext = extend_to_partition(W, (4, 6))
        for intervals, n in zip(ext.axes, (4, 6)):
            assert intervals[0][0] == 1
            assert intervals[-1][1] == n
            for (a1, b1), (a2, b2) in zip(intervals, intervals[1:]):
                assert a2 == b1 + 1

    def test_respects_block_membership(self):
        # cells already inside a witness interval keep their block coordinate
        W = GridWitness([[(2, 2), (4, 4)]])
        ext = extend_to_partition(W, (5,))
        assert ext.locate((2,)) == W.locate((2,))
        assert ext.locate((4,)) == W.locate((4,))

    def test_rejects_out_of_range(self):
        with pytest.raises(StructureError):
            extend_to_partition(GridWitness([[(1, 5)]]), (4,))


# -- interval-minor decider ------------------------------------------------------


class TestContainsIntervalMinor:
    def test_nonzero_host_contains_single_cell_pattern(self):
        A = TensorMatrix((3, 3), [(2, 2)])
        W = contains_interval_minor(A, all_ones((1, 1)))
        assert W is not None
        assert verify_witness(A, all_ones((1, 1)), W)

    def test_corners_host_lex_least_witness(self):
        A = TensorMatrix((3, 3), [(1, 1), (1, 3), (3, 1), (3, 3)])
        W = contains_interval_minor(A, all_ones((2, 2)))
        assert W is not None
        oracle_best = oracles.lex_least_witness_oracle(A, all_ones((2, 2)))
        assert W.axes == oracle_best

    def test_antidiagonal_avoids_2x2_allones(self):
        assert contains_interval_minor(antidiagonal(3, 2), all_ones((2, 2))) is None

    def test_pattern_larger_than_host(self):
        assert contains_interval_minor(all_ones((2, 2)), all_ones((3, 2))) is None

    def test_zero_pattern_gets_point_intervals(self):
        A = TensorMatrix((3, 3), [(2, 2)])
        W = contains_interval_minor(A, TensorMatrix((2, 2)))
        assert W is not None
        assert W.axes == (((1, 1), (2, 2)), ((1, 1), (2, 2)))

    @settings(max_examples=100, derandomize=True)
    @given(tensor_pairs(host_max=4, pat_max=2, d_max=2))
    # B's middle row and column are empty, so its middle parts need nothing
    @example((TensorMatrix((4, 4), [(1, 1), (2, 3), (4, 4)]),
              TensorMatrix((3, 3), [(1, 1), (3, 3)])))
    @example((all_ones((2, 4)), TensorMatrix((3, 2), [(1, 1), (3, 2)])))  # k > n
    def test_matches_enumeration_oracle_2d(self, pair):
        A, B = pair
        W = contains_interval_minor(A, B)
        best = oracles.lex_least_witness_oracle(A, B)
        if best is None:
            assert W is None
        else:
            assert W is not None and W.axes == best

    @settings(max_examples=40, derandomize=True)
    @given(tensor_pairs(host_max=3, pat_max=2, d_max=3))
    @example((TensorMatrix((3, 3, 3), [(1, 1, 1), (2, 3, 1), (3, 2, 3), (3, 3, 3)]),
              TensorMatrix((2, 2, 2), [(1, 1, 1), (2, 2, 2)])))
    def test_matches_enumeration_oracle_3d(self, pair):
        A, B = pair
        W = contains_interval_minor(A, B)
        best = oracles.lex_least_witness_oracle(A, B)
        assert (W is None) == (best is None)
        if W is not None:
            assert W.axes == best

    @settings(max_examples=100, derandomize=True)
    @given(tensor_pairs(host_max=4, pat_max=3, d_max=2))
    def test_decision_entry_agrees_with_witness_entry(self, pair):
        A, B = pair
        assert has_interval_minor(A, B) == (contains_interval_minor(A, B) is not None)

    def test_every_returned_witness_verifies(self):
        hosts = [
            TensorMatrix((4, 4), [(1, 2), (2, 4), (3, 1), (4, 3)]),
            all_ones((3, 3)),
            antidiagonal(4, 2),
        ]
        pats = [all_ones((2, 2)), IDENTITY2, TensorMatrix((2, 2), [(1, 2), (2, 1)])]
        for A in hosts:
            for B in pats:
                W = contains_interval_minor(A, B)
                if W is not None:
                    assert verify_witness(A, B, W)

    def test_ordinary_containment_implies_minor(self):
        for A in [all_ones((3, 3)), antidiagonal(3, 2), TensorMatrix((3, 3), [(1, 2), (2, 1), (3, 3)])]:
            for B in [IDENTITY2, TensorMatrix((2, 2), [(1, 2), (2, 1)])]:
                if contains_pattern(A, B):
                    assert contains_interval_minor(A, B) is not None

    def test_permutation_pattern_equivalence_2d(self):
        perms = [IDENTITY2, TensorMatrix((2, 2), [(1, 2), (2, 1)])]
        for A in oracles.all_tensors((3, 2)):
            for P in perms:
                assert contains_pattern(A, P) == (
                    contains_interval_minor(A, P) is not None
                )

    def test_budget_exhaustion_raises(self):
        A = all_ones((4, 4))
        B = TensorMatrix((2, 2), [(1, 2), (2, 1)])
        with pytest.raises(BudgetExceededError):
            contains_interval_minor(A, B, node_budget=1)

    def test_dimension_mismatch(self):
        with pytest.raises(StructureError):
            contains_interval_minor(all_ones((2, 2)), all_ones((2, 2, 2)))

    def test_allones_fast_path_agrees_with_search_3d(self):
        # exercises the all-ones decider against the literal witness oracle
        rng = np.random.default_rng(11)
        for _ in range(25):
            dims = (3, 3, 3)
            mask = rng.random(dims) < rng.uniform(0.2, 0.8)
            A = oracles.from_dense(mask.astype(np.int8))
            B = all_ones((2, 2, 2))
            assert has_interval_minor(A, B) == oracles.minor_oracle(A, B)


P2413 = TensorMatrix((4, 4), [(1, 2), (2, 4), (3, 1), (4, 3)])
WITNESS_TARGETS = {
    "J2": all_ones((2, 2)),
    "J3": all_ones((3, 3)),
    "J2d3": all_ones((2, 2, 2)),
    "P2413": P2413,
}

# contains_interval_minor(random_permutation(k, d, SeedSequence([1506, t])), B)
# as (target, k, d, t, W.axes or None), recorded with a search that tried every
# interval start as well as every end; hosts beyond the enumeration oracle
FROZEN_WITNESSES = [
    ("J2", 10, 2, 0, (((1, 3), (4, 5)), ((1, 6), (7, 9)))),
    ("J2", 10, 2, 1, (((1, 2), (3, 8)), ((1, 8), (9, 10)))),
    ("J2", 11, 2, 1, (((1, 2), (3, 6)), ((1, 7), (8, 10)))),
    ("J2", 11, 2, 3, (((1, 2), (3, 7)), ((1, 3), (4, 5)))),
    ("J2", 12, 2, 0, (((1, 2), (3, 4)), ((1, 7), (8, 11)))),
    ("J2", 12, 2, 4, (((1, 2), (3, 4)), ((1, 7), (8, 9)))),
    ("J3", 9, 2, 0, None),
    ("J3", 9, 2, 11, (((1, 3), (4, 6), (7, 9)), ((1, 3), (4, 6), (7, 9)))),
    ("J2d3", 8, 3, 0, None),
    ("J2d3", 8, 3, 1, (((1, 4), (5, 8)), ((1, 4), (5, 8)), ((1, 4), (5, 8)))),
    ("P2413", 8, 2, 0, None),
    ("P2413", 8, 2, 1, (((1, 2), (3, 3), (4, 4), (5, 5)), ((1, 1), (2, 4), (5, 5), (6, 6)))),
    ("P2413", 8, 2, 3, (((1, 1), (2, 2), (3, 6), (7, 7)), ((1, 1), (2, 2), (3, 5), (6, 8)))),
]


J3_K12_WITNESS = (((1, 3), (4, 7), (8, 10)), ((1, 6), (7, 9), (10, 12)))


def least_budget(A, B):
    """(least node_budget with which contains_interval_minor completes, the
    witness's axes or None)."""
    budget = 0
    while True:
        try:
            W = contains_interval_minor(A, B, node_budget=budget)
        except BudgetExceededError:
            budget += 1
            continue
        return budget, None if W is None else W.axes


class TestWitnessSearch:
    @pytest.mark.parametrize(
        "case", FROZEN_WITNESSES, ids=lambda c: "{}-k{}-d{}-t{}".format(*c[:4])
    )
    def test_frozen_lex_least_witnesses(self, case):
        target, k, d, t, axes = case
        A = random_permutation(k, d, np.random.SeedSequence([1506, t])).matrix
        W = contains_interval_minor(A, WITNESS_TARGETS[target])
        assert (None if W is None else W.axes) == axes
        if W is not None:
            assert verify_witness(A, WITNESS_TARGETS[target], W)

    def test_j3_in_random_permutation_within_1000_ends(self):
        # one budget node is one cut sweep; 11 suffice here
        A = random_permutation(12, 2, np.random.SeedSequence([1506, 0])).matrix
        W = contains_interval_minor(A, all_ones((3, 3)), node_budget=1000)
        assert W.axes == J3_K12_WITNESS

    def test_budget_counts_cut_sweeps(self):
        # the decision, then 3 + 4 + 3 tries for the ends 3, 7, 10 of axis
        # 1; the last try's closes are axis 2's ends
        A = random_permutation(12, 2, np.random.SeedSequence([1506, 0])).matrix
        W = contains_interval_minor(A, all_ones((3, 3)), node_budget=11)
        assert W.axes == J3_K12_WITNESS
        with pytest.raises(BudgetExceededError):
            contains_interval_minor(A, all_ones((3, 3)), node_budget=10)

    def test_small_host_decides_with_one_sweep(self):
        # the split misses this host, and with numpy loaded its 55 cut
        # tuples times (12 + 12) steps go to the numpy sweep, which decides
        # once; every pure sweep after it fixes an end of a prefix
        A = random_permutation(12, 2, np.random.SeedSequence([1506, 0])).matrix
        assert not containment._equal_split_hits(A.ones, (3, 3), A.dims)
        with mock.patch.object(containment, "_sweep", wraps=containment._sweep) as spy, \
                mock.patch.object(containment, "_allones_minor",
                                  wraps=containment._allones_minor) as numpy_sweep:
            W = contains_interval_minor(A, all_ones((3, 3)))
        assert W.axes == J3_K12_WITNESS
        assert numpy_sweep.call_count == 1
        prefixes = [call.args[3] if len(call.args) > 3 else () for call in spy.call_args_list]
        assert len(prefixes) == 10
        assert all(prefixes)

    def test_node_counts_do_not_depend_on_loaded_numpy(self):
        # this process has numpy loaded; a new interpreter that never loads
        # it decides both hosts on the pure sweep, with the same counts
        hosts = [
            (random_permutation(12, 2, np.random.SeedSequence([1506, 0])).matrix, (3, 3)),
            (identity_permutation(101, 2).matrix, (2, 2)),
        ]
        want = [(11, J3_K12_WITNESS), (1, None)]
        assert [least_budget(A, all_ones(ks)) for A, ks in hosts] == want
        code = (
            "import json, sys\n"
            "from patternforge.containment import contains_interval_minor\n"
            "from patternforge.errors import BudgetExceededError\n"
            "from patternforge.tensor import TensorMatrix, all_ones\n"
            + inspect.getsource(least_budget)
            + "got = [least_budget(TensorMatrix(dims, map(tuple, ones)), all_ones(ks))\n"
            "       for dims, ones, ks in json.loads(sys.argv[1])]\n"
            "print(json.dumps([got, 'numpy' in sys.modules]))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        arg = json.dumps([[A.dims, sorted(A.ones), ks] for A, ks in hosts])
        proc = subprocess.run([sys.executable, "-c", code, arg], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == json.dumps([want, False])

    def test_small_host_without_the_minor_spends_one_node(self):
        # the split misses, and on a host this small the counted deciding
        # sweep is the one that finds no witness
        A = antidiagonal(6, 2)
        assert contains_interval_minor(A, all_ones((2, 2)), node_budget=1) is None
        with pytest.raises(BudgetExceededError):
            contains_interval_minor(A, all_ones((2, 2)), node_budget=0)

    def test_antidiagonal_avoids_identity_within_100_ends(self):
        A = antidiagonal(6, 2)
        assert contains_interval_minor(A, IDENTITY2, node_budget=100) is None
        assert not has_interval_minor(A, IDENTITY2)


# -- all-ones decider ------------------------------------------------------------


@st.composite
def allones_targets(draw):
    """A host and all-ones target extents; extents and ks include 1 and may
    differ by axis, and hosts may be empty or share last coordinates."""
    d = draw(st.integers(2, 4))
    host_max, k_max = {2: (5, 3), 3: (4, 3), 4: (3, 2)}[d]
    dims = tuple(draw(st.integers(1, host_max)) for _ in range(d))
    ks = tuple(draw(st.integers(1, k_max)) for _ in range(d))
    cells = list(itertools.product(*(range(1, n + 1) for n in dims)))
    bits = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    return TensorMatrix(dims, itertools.compress(cells, bits)), ks


# has_interval_minor(random_permutation(k, d, SeedSequence([1506, t])), J_ell)
# for t = 0..19, one character per t (1: contains), recorded with a dense
# partition scan over all k^d cells
FROZEN_PERMUTATION_ANSWERS = {
    (4, 2, 2): "00110100010111000111",
    (34, 2, 2): "11111111111111111111",
    (12, 3, 2): "11110111111101111111",
    (119, 3, 2): "11111111111111111111",
    (10, 2, 3): "01001000100011000110",
    (178, 2, 3): "11111111111111111111",
}


def permutation_answers(k, ell, d, decide=has_interval_minor):
    target = all_ones((ell,) * d)
    return "".join(
        "1" if decide(
            random_permutation(k, d, np.random.SeedSequence([1506, t])).matrix, target
        ) else "0"
        for t in range(20)
    )


def sweep_only(A, B):
    """The exact cut sweep alone, without the equal split before it."""
    return containment._allones_minor(A.ones, B.dims, A.dims)


class TestAllOnesDecider:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(allones_targets())
    @example((TensorMatrix((3, 3)), (1, 1)))  # empty host
    @example((TensorMatrix((3, 2, 2), [(1, 1, 1), (3, 2, 1), (2, 1, 2)]), (2, 1, 2)))
    @example((TensorMatrix((2, 3), [(1, 1), (2, 3), (1, 3), (2, 1)]), (2, 2)))  # ties
    @example((all_ones((2, 2)), (2, 2)))  # the host is the target
    def test_matches_minor_oracle(self, case):
        A, ks = case
        B = all_ones(ks)
        expected = oracles.minor_oracle(A, B)
        assert has_interval_minor(A, B) == expected
        assert (contains_interval_minor(A, B) is not None) == expected
        assert containment._allones_minor(A.ones, ks, A.dims) == expected
        # with both sweeps stubbed to "no", True can come from the split only
        with mock.patch.object(containment, "_allones_minor", return_value=False), \
                mock.patch.object(containment, "_sweep", return_value=None):
            if has_interval_minor(A, B):
                assert expected

    @pytest.mark.parametrize("point", sorted(FROZEN_PERMUTATION_ANSWERS), ids=str)
    def test_frozen_random_permutation_answers(self, point):
        expected = FROZEN_PERMUTATION_ANSWERS[point]
        assert permutation_answers(*point) == expected
        assert permutation_answers(*point, sweep_only) == expected

    @pytest.mark.parametrize("point", sorted(FROZEN_PERMUTATION_ANSWERS), ids=str)
    def test_sweep_reads_any_collection_of_ones(self, point):
        # the sweep's answer depends on the ones only, not on their container
        # or the order it yields them in: a list in lex order, hash order
        for kind in (sorted, set, frozenset):

            def sweep(A, B):
                return containment._allones_minor(kind(A.ones), B.dims, A.dims)

            assert permutation_answers(*point, sweep) == FROZEN_PERMUTATION_ANSWERS[point]

    def test_answers_do_not_depend_on_chunk_size(self, monkeypatch):
        # one cut tuple per chunk
        monkeypatch.setattr(containment, "_LABEL_BYTES", 1)
        for point in [(4, 2, 2), (12, 3, 2), (10, 2, 3)]:
            expected = FROZEN_PERMUTATION_ANSWERS[point]
            assert permutation_answers(*point) == expected
            assert permutation_answers(*point, sweep_only) == expected

    def test_labels_stay_within_bound_when_a_row_spans_chunks(self, monkeypatch):
        # (10, 2, 3): a row of first-axis cuts takes 9 cut tuples of the
        # second axis, and a chunk of 30 label bytes holds 3 of them
        hosts = [random_permutation(10, 3, np.random.SeedSequence([1506, t])).matrix
                 for t in range(20)]
        monkeypatch.setattr(containment, "_LABEL_BYTES", 30)
        made = []

        def spy(make):
            def making(*args, **kwargs):
                made.append(make(*args, **kwargs))
                return made[-1]
            return making

        with mock.patch.object(np, "zeros", spy(np.zeros)), \
                mock.patch.object(np, "empty", spy(np.empty)):
            got = "".join(str(int(sweep_only(A, all_ones((2, 2, 2))))) for A in hosts)
        assert got == FROZEN_PERMUTATION_ANSWERS[(10, 2, 3)]
        assert made and max(a.nbytes for a in made) <= 30

    def test_a_chunk_holds_two_label_sized_arrays(self, monkeypatch):
        # tracemalloc sees every array, the ones numpy's operators return
        # included: the labels and one comparison buffer serve every chunk
        monkeypatch.setattr(containment, "_LABEL_BYTES", 1 << 20)
        A = random_permutation(300, 2, np.random.SeedSequence([1506, 0])).matrix
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert containment._allones_minor(A.ones, (4, 4), A.dims)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * (1 << 20)

    def test_equal_split_decides_every_paper_threshold(self, monkeypatch):
        # the exact sweeps need minutes from (3, 3) on; the equal split of
        # every axis into ell parts is a witness here without it
        def no_sweep(*args):
            raise AssertionError("an exact sweep ran")

        monkeypatch.setattr(containment, "_allones_minor", no_sweep)
        monkeypatch.setattr(containment, "_sweep", no_sweep)
        for ell, d in itertools.product((2, 3, 4), repeat=2):
            k = side_threshold(ell, d)
            for t in range(3):
                A = random_permutation(k, d, np.random.SeedSequence([1506, t])).matrix
                assert has_interval_minor(A, all_ones((ell,) * d)), (ell, d, t)

    def test_identity_above_dense_size_avoids_j2(self):
        A = identity_permutation(300, 3).matrix
        assert A.cell_count > 1 << 24
        assert not has_interval_minor(A, all_ones((2, 2, 2)))
        assert contains_interval_minor(A, all_ones((2, 2, 2))) is None

    def test_identity_plus_cube_corners_contains_j2(self):
        ones = set(identity_permutation(300, 3).matrix.ones)
        ones |= set(itertools.product((1, 300), repeat=3))
        A = TensorMatrix((300,) * 3, ones)
        assert A.ones_count == 306
        assert has_interval_minor(A, all_ones((2, 2, 2)))
        assert containment._allones_minor(A.ones, (2, 2, 2), A.dims)

    def test_one_axis(self):
        # no leading axes: the last axis needs a part per 1 of the target
        ones = [(2,), (5,), (9,)]
        assert containment._allones_minor(ones, (3,), (9,))
        assert not containment._allones_minor(ones, (4,), (9,))

    def test_more_than_64_blocks(self):
        # 81 blocks on the leading axes do not fit one machine word
        full = all_ones((9, 9, 2))
        assert has_interval_minor(full, full)
        assert containment._allones_minor(full.ones, full.dims, full.dims)
        holed = TensorMatrix(full.dims, full.ones - {(5, 5, 2)})
        assert not has_interval_minor(holed, full)
        assert has_interval_minor(holed, all_ones((9, 8, 2)))


# -- contraction-sequence oracle ---------------------------------------------------


class TestContractionOracle:
    def test_allones_host_needs_no_contractions(self):
        assert contains_via_contraction_oracle(all_ones((2, 2)), all_ones((2, 2)))

    def test_identity_lacks_allones_minor(self):
        assert not contains_via_contraction_oracle(IDENTITY2, all_ones((2, 2)))

    def test_nonzero_contains_single_cell(self):
        assert contains_via_contraction_oracle(
            antidiagonal(3, 2), TensorMatrix((1, 1), [(1, 1)])
        )

    def test_refuses_large_hosts(self):
        with pytest.raises(PreconditionError):
            contains_via_contraction_oracle(all_ones((9, 9, 9)), all_ones((2, 2, 2)))

    def test_agrees_with_grid_witness_form_sampled(self):
        # the full sweep lives in the acceptance suite; spot-check here
        hosts = [
            TensorMatrix((3, 3), [(1, 1), (1, 3), (3, 1), (3, 3)]),
            TensorMatrix((3, 3), [(1, 2), (2, 1), (2, 3), (3, 2)]),
            antidiagonal(3, 2),
            TensorMatrix((3, 3), [(2, 2)]),
            TensorMatrix((3, 3), []),
        ]
        pats = [
            all_ones((2, 2)),
            IDENTITY2,
            TensorMatrix((2, 2), [(1, 2), (2, 1)]),
            TensorMatrix((2, 2), [(1, 1), (1, 2), (2, 1)]),
            TensorMatrix((1, 2), [(1, 1), (1, 2)]),
        ]
        for A in hosts:
            for B in pats:
                got = contains_interval_minor(A, B) is not None
                assert got == contains_via_contraction_oracle(A, B), (A, B)
