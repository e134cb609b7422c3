"""Permutation generators, blow-up avoiders, and corner reduction."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import patternforge.construct as construct
from patternforge.construct import (
    CornerReduction,
    _permutation_columns,
    blowup_avoider,
    corner_reduce,
    identity_permutation,
    random_permutation,
    scale_avoider,
)
from patternforge.containment import GridWitness, contains_pattern, has_interval_minor
from patternforge.errors import PreconditionError, RangeError, VerificationError
from patternforge.tensor import PermutationTensor, TensorMatrix, all_ones, antidiagonal

IDENTITY2 = TensorMatrix((2, 2), [(1, 1), (2, 2)])
ANTI2 = TensorMatrix((2, 2), [(1, 2), (2, 1)])
ONE = TensorMatrix((1, 1), [(1, 1)])


class TestIdentityPermutation:
    def test_small_cases(self):
        assert identity_permutation(2, 2).matrix.ones == {(1, 1), (2, 2)}
        assert identity_permutation(1, 3).matrix.ones == {(1, 1, 1)}
        assert identity_permutation(3, 3).matrix.ones == {
            (1, 1, 1),
            (2, 2, 2),
            (3, 3, 3),
        }

    def test_rejects_bad_arguments(self):
        with pytest.raises(RangeError):
            identity_permutation(0, 2)
        with pytest.raises(RangeError):
            identity_permutation(2, 1)


# sha256 of repr(sorted(ones)) of random_permutation(k, d, SeedSequence([1506, t]))
# over t = 0..4, first 16 hex digits, recorded with a per-element Fisher-Yates
FROZEN_PERMUTATION_DIGESTS = {
    (1, 2): "7e5bae6283ad54a6",
    (1, 3): "ba071257891e642f",
    (2, 2): "7be1fbc9f2fcc17a",
    (2, 3): "81aabcdd49125cb6",
    (34, 2): "168b0f3a66f63252",
    (34, 3): "98d8118c5e17340c",
    (178, 2): "feecc90d7eb9186c",
    (178, 3): "66df344f9161a783",
    (7, 4): "07ade4432222eb5e",
    (34, 4): "c679a8a13e1be3a1",
}


class TestRandomPermutation:
    @pytest.mark.parametrize("point", sorted(FROZEN_PERMUTATION_DIGESTS), ids=str)
    def test_frozen_streams(self, point):
        k, d = point
        h = hashlib.sha256()
        for t in range(5):
            P = random_permutation(k, d, np.random.SeedSequence([1506, t]))
            h.update(repr(sorted(P.matrix.ones)).encode())
        assert h.hexdigest()[:16] == FROZEN_PERMUTATION_DIGESTS[point]

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(k=st.integers(1, 40), d=st.integers(2, 4), data=st.data())
    def test_columns_are_permutations_for_any_in_range_swaps(self, k, d, data):
        # the swap partner of i on each axis is anywhere in [0, i]
        raw = data.draw(st.lists(st.integers(0, 2**32), min_size=(d - 1) * (k - 1),
                                 max_size=(d - 1) * (k - 1)))
        bounds = list(range(k - 1, 0, -1)) * (d - 1)
        cols = _permutation_columns(k, d, [r % (i + 1) for r, i in zip(raw, bounds)])
        assert len(cols) == d - 1
        for col in cols:
            assert sorted(col) == list(range(1, k + 1))

    def test_deterministic_for_fixed_seed(self):
        a = random_permutation(12, 3, 987654321)
        b = random_permutation(12, 3, 987654321)
        assert a == b

    def test_seeds_differ(self):
        assert random_permutation(12, 2, 1) != random_permutation(12, 2, 2)

    def test_single_cell(self):
        assert random_permutation(1, 4, 0).matrix.ones == {(1, 1, 1, 1)}

    def test_validates_as_permutation(self):
        for seed in range(20):
            P = random_permutation(7, 3, seed)
            assert isinstance(P, PermutationTensor)

    def test_first_axis_is_the_index(self):
        P = random_permutation(6, 2, 5)
        assert sorted(c[0] for c in P.matrix.ones) == [1, 2, 3, 4, 5, 6]

    def test_all_small_permutations_reachable(self):
        # 2-D, k=3: every one of the 6 permutations should appear over seeds
        seen = set()
        for seed in range(200):
            P = random_permutation(3, 2, seed)
            seen.add(tuple(sorted(P.matrix.ones)))
        assert len(seen) == 6

    def test_accepts_seed_sequence(self):
        ss = np.random.SeedSequence([77, 3])
        a = random_permutation(5, 2, ss)
        b = random_permutation(5, 2, np.random.SeedSequence([77, 3]))
        assert a == b

    def test_rejects_bad_arguments(self):
        with pytest.raises(RangeError):
            random_permutation(0, 2, 1)
        with pytest.raises(RangeError):
            random_permutation(3, 1, 1)
        with pytest.raises(RangeError):
            random_permutation(3, 2, -1)


class TestBlowupAvoider:
    def test_l_shape_block_doubling(self):
        N = TensorMatrix((2, 2), [(1, 1), (1, 2), (2, 1)])
        out = blowup_avoider(2, N, 3)
        assert out.dims == (4, 4)
        assert out.ones_count == 6
        assert not has_interval_minor(out, all_ones((3, 3)))

    def test_s1_returns_input_layout(self):
        N = TensorMatrix((2, 2), [(1, 1), (1, 2), (2, 1)])
        assert blowup_avoider(1, N, 3) == N

    def test_zero_input(self):
        out = blowup_avoider(2, TensorMatrix((1, 1)), 2)
        assert out == TensorMatrix((2, 2))

    def test_ones_count_formula(self):
        import math

        for s in (1, 2, 3):
            N = TensorMatrix((2, 2), [(1, 1), (1, 2), (2, 1)])
            out = blowup_avoider(s, N, 3)
            assert out.ones_count == math.comb(s + 2 - 2, 2 - 1) * N.ones_count

    def test_3d_output_avoids(self):
        N = antidiagonal(2, 3)  # 3 ones cannot fill the 8 blocks of side 2
        out = blowup_avoider(2, N, 3)
        assert out.dims == (4, 4, 4)
        assert not has_interval_minor(out, all_ones((3, 3, 3)))

    def test_precondition_rejected(self):
        # all-ones 2x2 clearly contains the side-2 all-ones minor
        with pytest.raises(PreconditionError):
            blowup_avoider(2, all_ones((2, 2)), 3)

    def test_rejects_bad_arguments(self):
        with pytest.raises(RangeError):
            blowup_avoider(0, ONE, 2)
        with pytest.raises(RangeError):
            blowup_avoider(2, ONE, 1)

    def test_verification_failure_raises(self, monkeypatch):
        # force the post-check to see a violation: a real one cannot occur
        real = construct.has_interval_minor

        def lying(A, B):
            # the 2x2 inputs pass the precondition; every larger output fails
            return A.dims[0] > 2 or real(A, B)

        monkeypatch.setattr(construct, "has_interval_minor", lying)
        N = TensorMatrix((2, 2), [(1, 1), (1, 2), (2, 1)])
        with pytest.raises(VerificationError):
            blowup_avoider(2, N, 3)
        # 258 x 258 cells, more than the old 2^16-cell verification limit
        with pytest.raises(VerificationError):
            blowup_avoider(129, IDENTITY2, 3)


class TestScaleAvoider:
    def test_identity_pattern_gives_antidiagonal(self):
        assert scale_avoider(3, ONE, IDENTITY2) == antidiagonal(3, 2)

    def test_reversed_corner_mirrors_orientation(self):
        got = scale_avoider(3, ONE, ANTI2)
        assert got.ones == {(1, 1), (2, 2), (3, 3)}
        assert not contains_pattern(got, ANTI2)

    def test_s1_identity_scaling(self):
        A = TensorMatrix((2, 2), [(1, 1), (1, 2), (2, 1)])
        assert scale_avoider(1, A, IDENTITY2) == A

    def test_l_shape_avoider_doubles(self):
        A = TensorMatrix((2, 2), [(1, 1), (1, 2), (2, 1)])
        out = scale_avoider(2, A, IDENTITY2)
        assert out.dims == (4, 4)
        assert out.ones_count == 6
        assert not contains_pattern(out, IDENTITY2)

    def test_missing_corner_rejected(self):
        plus = TensorMatrix((3, 3), [(1, 2), (2, 1), (2, 2), (2, 3), (3, 2)])
        with pytest.raises(PreconditionError):
            scale_avoider(2, TensorMatrix((3, 3)), plus)

    def test_non_avoider_rejected(self):
        with pytest.raises(PreconditionError):
            scale_avoider(2, all_ones((2, 2)), IDENTITY2)

    def test_randomized_outputs_avoid(self):
        rng = np.random.default_rng(3)
        pats = [
            IDENTITY2,
            ANTI2,
            TensorMatrix((2, 2), [(1, 1), (2, 2), (2, 1)]),
            TensorMatrix((2, 3), [(1, 1), (2, 3)]),
        ]
        checked = 0
        for pat in pats:
            for _ in range(20):
                dims = tuple(int(rng.integers(1, 4)) for _ in range(2))
                mask = rng.random(dims) < 0.5
                A = oracles.from_dense(mask.astype(np.int8))
                if contains_pattern(A, pat):
                    continue
                s = int(rng.integers(1, 4))
                out = scale_avoider(s, A, pat)  # internal verify on
                assert not contains_pattern(out, pat)
                assert out.dims == tuple(s * n for n in dims)
                checked += 1
        assert checked >= 20

    def test_3d_case(self):
        P3 = TensorMatrix((2, 2, 2), [(1, 1, 1), (2, 2, 2)])
        A = TensorMatrix((1, 1, 1), [(1, 1, 1)])
        out = scale_avoider(2, A, P3)
        assert out.dims == (2, 2, 2)
        assert not contains_pattern(out, P3)


class TestCornerReduce:
    def test_four_cycle_hand_trace(self):
        P = PermutationTensor(TensorMatrix((4, 4), [(1, 2), (2, 4), (3, 1), (4, 3)]))
        W = GridWitness([[(1, 2), (3, 4)], [(1, 2), (3, 4)]])
        r = corner_reduce(P, W)
        assert r.matrix == TensorMatrix((1, 1), [(1, 1)])
        assert r.removed_boundary == ((2, 4), (3, 1))
        assert r.removed_pivot == (4, 3)
        assert r.has_corner_one and r.keeps_smaller_minor
        assert r.checks_pass

    def test_witness_with_gaps_is_extended_first(self):
        P = PermutationTensor(
            TensorMatrix((5, 5), [(1, 1), (2, 4), (3, 3), (4, 2), (5, 5)])
        )
        W = GridWitness([[(1, 2), (4, 5)], [(1, 2), (4, 5)]])
        r = corner_reduce(P, W)
        # row/col 3 fall in no interval; extension attaches them backwards
        assert r.partition.axes == (((1, 3), (4, 5)), ((1, 3), (4, 5)))
        # (3,3) thereby lands in the exempt block (1,1) and survives
        assert r.matrix == TensorMatrix((2, 2), [(1, 1), (2, 2)])
        assert r.checks_pass

    def test_single_interval_rejected(self):
        P = identity_permutation(3, 2)
        with pytest.raises(PreconditionError):
            corner_reduce(P, GridWitness([[(1, 3)], [(1, 3)]]))

    def test_invalid_witness_rejected(self):
        P = identity_permutation(4, 2)
        W = GridWitness([[(1, 2), (3, 4)], [(1, 2), (3, 4)]])
        with pytest.raises(PreconditionError):
            corner_reduce(P, W)  # block (1,2) holds no one of the identity

    def test_mismatched_interval_counts_rejected(self):
        P = PermutationTensor(TensorMatrix((4, 4), [(1, 2), (2, 4), (3, 1), (4, 3)]))
        with pytest.raises(PreconditionError):
            corner_reduce(P, GridWitness([[(1, 2), (3, 4)], [(1, 4)]]))

    def test_three_dimensional_case(self):
        # 8 ones filling every octant of a 2x2x2 block grid
        coords = [
            (1, 1, 1),
            (2, 2, 5),
            (3, 5, 2),
            (4, 6, 6),
            (5, 3, 3),
            (6, 4, 7),
            (7, 7, 4),
            (8, 8, 8),
        ]
        P = PermutationTensor(TensorMatrix((8, 8, 8), coords))
        W = GridWitness([[(1, 4), (5, 8)]] * 3)
        r = corner_reduce(P, W)
        assert r.checks_pass
        # survivors: block (1,1,1) ones plus blocks in {2}^3 minus one pivot
        assert r.matrix.ones_count == P.matrix.ones_count - len(
            r.removed_boundary
        ) - 1

    def test_result_reports_failed_claims_instead_of_raising(self):
        # engineered so the survivor set loses every corner: block (1,1)
        # holds ones away from extent edges after compaction... hard to
        # force for permutations; instead check the dataclass plumbing
        r = CornerReduction(
            matrix=TensorMatrix((1, 1), [(1, 1)]),
            has_corner_one=False,
            keeps_smaller_minor=True,
            removed_boundary=(),
            removed_pivot=(1, 1),
            partition=GridWitness([[(1, 1)]]),
        )
        assert not r.checks_pass
