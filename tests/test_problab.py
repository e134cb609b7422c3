"""Threshold formulas, the bound chain, Monte Carlo, and rational bounds."""

import itertools
import math
import os
import statistics
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
import patternforge.containment as containment
import patternforge.probability as probability
from patternforge.construct import _permutation_columns, _swap_bounds, random_permutation
from patternforge.containment import _equal_split_hits, has_interval_minor
from patternforge.errors import PreconditionError, RangeError, StructureError
from patternforge.probability import (
    ChainReport,
    EllReport,
    EstimateReport,
    avoid_probability,
    ell_from_k,
    probability_chain,
    ratio_lower_bound,
    side_threshold,
)
from patternforge.tensor import all_ones


class TestSideThreshold:
    def test_anchor_values(self):
        assert side_threshold(2, 2) == 34
        assert side_threshold(2, 3) == 178
        assert side_threshold(3, 2) == 119
        assert side_threshold(3, 3) == 950

    def test_is_smallest_satisfying_k(self):
        for ell in (2, 3, 4):
            for d in (2, 3):
                k = side_threshold(ell, d)
                bound = (d + 1) * (2 * ell) ** d * math.log(ell)
                assert k >= bound
                assert k - 1 < bound

    def test_rejects_degenerate_arguments(self):
        with pytest.raises(RangeError):
            side_threshold(1, 2)
        with pytest.raises(RangeError):
            side_threshold(2, 1)


class TestEllFromK:
    def test_large_k_anchor(self):
        rep = ell_from_k(10**6, 2)
        assert rep.ell == 61
        assert not rep.degenerate
        assert rep.threshold_ok
        assert rep.threshold == side_threshold(61, 2)

    def test_small_k_degenerates(self):
        rep = ell_from_k(10, 2)
        assert rep.ell == 1
        assert rep.degenerate
        assert rep.threshold is None and rep.threshold_ok is None

    def test_ell_minus_one_is_multiple_of_twenty(self):
        for d in (2, 3):
            for k in (3, 10, 10**3, 10**5, 10**6, 10**8):
                rep = ell_from_k(k, d)
                assert (rep.ell - 1) % 20 == 0

    def test_threshold_holds_whenever_nondegenerate(self):
        for d in (2, 3):
            for exp in range(1, 10):
                rep = ell_from_k(10**exp, d)
                if rep.ell >= 2:
                    assert rep.threshold_ok, (10**exp, d)

    def test_rejects_bad_arguments(self):
        with pytest.raises(RangeError):
            ell_from_k(2, 2)
        with pytest.raises(RangeError):
            ell_from_k(100, 1)

    def test_json_shape(self):
        data = ell_from_k(10**6, 2).to_json()
        assert data["ell"] == 61 and data["threshold_ok"] is True


class TestProbabilityChain:
    def test_threshold_point_values(self):
        rep = probability_chain(34, 2, 2)
        base, halved, exponential, final = rep.values
        assert rep.strict
        assert final == pytest.approx(0.125)
        assert base < halved < exponential < final
        assert base == pytest.approx((1 - (1 / 2 - 1 / 34)) ** 16)

    def test_strict_at_all_small_thresholds(self):
        for ell in (2, 3):
            for d in (2, 3):
                k = side_threshold(ell, d)
                assert probability_chain(k, ell, d).strict

    def test_degenerates_at_twice_ell(self):
        # first two expressions coincide exactly at k = 2*ell
        rep = probability_chain(4, 2, 2)
        assert rep.values[0] == rep.values[1]
        assert not rep.strict

    @pytest.mark.parametrize("k, ell, d", [(10361, 2, 2), (46183, 2, 3), (24522, 3, 2),
                                           (158703, 3, 3), (3047566, 4, 4)])
    def test_strict_where_floats_underflow(self, k, ell, d):
        # the first k past each threshold where the float terms underflow so
        # far that they no longer compare strictly
        rep = probability_chain(k, ell, d)
        base, halved, exponential, _ = rep.values
        assert base == 0.0 and not base < halved < exponential
        assert rep.strict

    def test_final_bound_rational_identity(self):
        for ell in (2, 3, 5):
            for d in (2, 3):
                rep = probability_chain(side_threshold(ell, d), ell, d)
                assert rep.final_bound_exact == Fraction(1, ell ** (d + 1))
                # ell^d blocks, each below the final bound: exactly 1/ell
                assert ell**d * rep.final_bound_exact == Fraction(1, ell)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            probability_chain(3, 2, 2)  # k < 2*ell
        with pytest.raises(PreconditionError):
            probability_chain(10, 1, 2)
        with pytest.raises(PreconditionError):
            probability_chain(10, 2, 1)


class SpyGenerator:
    """Records the seed of each trial that `probability._trial_swaps` hands
    to numpy's generator, `_generator_swaps`."""

    def __init__(self, monkeypatch):
        self.calls = []
        generator_swaps = probability._generator_swaps

        def spy(seed, highs):
            self.calls.append(seed)
            return generator_swaps(seed, highs)

        monkeypatch.setattr(probability, "_generator_swaps", spy)


class TestAvoidProbability:
    def test_pigeonhole_anchor_is_exactly_one(self):
        rep = avoid_probability(2, 2, 2, trials=100, seed=7)
        assert rep.estimate == 1.0
        assert rep.avoid_count == 100

    def test_single_cell_target_never_avoided(self):
        rep = avoid_probability(5, 1, 2, trials=100, seed=7)
        assert rep.estimate == 0.0

    def test_deterministic_for_fixed_seed(self):
        a = avoid_probability(8, 2, 2, trials=200, seed=99)
        b = avoid_probability(8, 2, 2, trials=200, seed=99)
        assert a == b

    def test_avoidance_rarer_for_larger_side(self):
        # statistical sanity with generous slack, not a sharp bound
        lo = avoid_probability(4, 2, 2, trials=500, seed=13)
        hi = avoid_probability(32, 2, 2, trials=500, seed=13)
        sigma = math.sqrt(0.25 / 500)
        assert hi.estimate <= lo.estimate + 3 * sigma

    def test_confidence_radius_formula(self):
        rep = avoid_probability(6, 2, 2, trials=400, seed=3)
        p = rep.estimate
        want = probability._Z99 * math.sqrt(p * (1 - p) / 400)
        assert rep.conf99 == pytest.approx(want)

    def test_z99_is_the_two_sided_99_percent_quantile(self):
        want = statistics.NormalDist().inv_cdf(0.995)
        assert abs(probability._Z99 - want) < 1e-12

    @staticmethod
    def fresh_output(code: str) -> str:
        # a new interpreter, since the test modules import numpy themselves
        src = os.path.dirname(os.path.dirname(probability.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True,
        )
        return out.stdout.strip()

    def test_import_leaves_scipy_stats_unloaded(self):
        code = "import sys, patternforge; print('scipy.stats' in sys.modules)"
        assert self.fresh_output(code) == "False"

    def test_estimate_with_draws_leaves_numpy_random_unloaded(self):
        code = (
            "import sys; from patternforge.cli import main; "
            "main(['prob', 'estimate', '--k', '34', '--ell', '2', '--d', '2', "
            "'--trials', '5', '--seed', '1', '--format', 'json']); "
            "print('numpy' in sys.modules, 'numpy.random' in sys.modules)"
        )
        assert self.fresh_output(code).splitlines()[-1] == "True False"

    def test_estimate_with_a_rejecting_trial_loads_numpy_random(self):
        # at k = 100,000 in d = 2 a trial rejects a word 0.58 times on
        # average; trial 0 of seed 2 rejects one
        code = (
            "import sys; from patternforge.probability import avoid_probability; "
            "avoid_probability(100_000, 2, 2, trials=1, seed=2); "
            "print('numpy.random' in sys.modules)"
        )
        assert self.fresh_output(code) == "True"

    def test_estimate_without_draws_leaves_numpy_unloaded(self):
        # k < ell^d: every trial avoids, and none is drawn or seeded
        code = (
            "import sys; from patternforge.probability import avoid_probability; "
            "avoid_probability(3, 2, 2, trials=5, seed=1); print('numpy' in sys.modules)"
        )
        assert self.fresh_output(code) == "False"

    def test_validation(self):
        with pytest.raises(PreconditionError):
            avoid_probability(3, 2, 2, trials=0, seed=1)
        with pytest.raises(RangeError):
            avoid_probability(0, 2, 2, trials=1, seed=1)
        with pytest.raises(RangeError):
            avoid_probability(3, 2, 1, trials=1, seed=1)
        # a negative seed, with trials drawn and with none (k < ell^d)
        with pytest.raises(RangeError):
            avoid_probability(8, 2, 2, trials=2, seed=-1)
        with pytest.raises(RangeError):
            avoid_probability(3, 2, 2, trials=5, seed=-1)

    def test_seed_words_are_numpy_entropy(self):
        # a trial seeds from the words of (seed, t); numpy must derive the same
        # state from them as from the list [seed, t]
        seeds, ts = [0, 1, 2**32 - 1, 2**32, 2**64 - 1], [0, 1, 2**32 - 1, 2**32]
        for seed, t in itertools.product(seeds, ts):
            words = probability._uint32_words(seed) + probability._uint32_words(t)
            got = np.random.SeedSequence(np.array(words, dtype=np.uint32))
            want = np.random.SeedSequence([seed, t])
            assert np.array_equal(
                got.generate_state(4, np.uint64), want.generate_state(4, np.uint64)
            ), (seed, t)

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64, 2**96 + 5, 2**128 + 3])
    def test_trial_states_are_numpy_seeding(self, seed):
        # with t, the last two seeds give 5 and 6 entropy words: SeedSequence
        # mixes the words past its pool's fourth in a step of their own
        chunk = probability._STATE_CHUNK
        # a chunk begins at `chunk` and at 2**32, where t gains a second word
        for start, stop in [(0, 3), (chunk - 2, chunk + 2), (2**32 - 2, 2**32 + 2)]:
            got = list(probability._trial_states(seed, start, stop))
            want = []
            for t in range(start, stop):
                state = np.random.PCG64(np.random.SeedSequence([seed, t])).state["state"]
                want.append((state["state"], state["inc"]))
            assert got == want, (seed, start)

    @staticmethod
    def numpy_draws(seed: int, t: int, highs) -> list[int]:
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        return rng.integers(0, highs).tolist()

    def test_trial_columns_across_chunk_edges(self, monkeypatch):
        # the chunks' words and the trials' rows must not bleed into each
        # other, within a chunk or across an edge
        monkeypatch.setattr(probability, "_STATE_CHUNK", 4)
        k, d, seed = 9, 3, 2**40 + 7
        swaps = probability._trial_swaps(seed, 11, _swap_bounds(k, d))
        for t, trial in enumerate(swaps):
            cols = _permutation_columns(k, d, trial)
            want = random_permutation(k, d, np.random.SeedSequence([seed, t])).matrix
            assert sorted(zip(range(1, k + 1), *cols)) == sorted(want.ones), t

    @pytest.mark.parametrize("k, d", [(1, 2), (2, 3), (34, 2), (178, 3), (7, 4)])
    def test_trial_swaps_are_numpy_draws(self, k, d):
        highs = _swap_bounds(k, d)
        got = list(probability._trial_swaps(2026, 7, highs))
        assert got == [self.numpy_draws(2026, t, highs) for t in range(7)]

    @staticmethod
    def rejects(seed: int, t: int, highs) -> bool:
        """Whether a bounded draw of trial t rejects its word: up to the
        first rejection, draw i reads 32-bit word i of the stream."""
        raw = np.random.PCG64(np.random.SeedSequence([seed, t])).random_raw(len(highs))
        words = raw.astype("<u8").view("<u4").tolist()  # the low half first
        return any(w * h % 2**32 < 2**32 % h for w, h in zip(words, highs.tolist()))

    def test_rejecting_trials_are_drawn_by_numpy(self, monkeypatch):
        # a bound of 3 * 2**30 or 3 * 2**30 + 1 rejects about a quarter of
        # the words, and 2**32 and 2**32 - 1 are the edges of the 32-bit
        # draw.  Sixty rounds of the bounds reject in every trial, one trial
        # to a chunk; one round rejects in some trials of a chunk of twelve
        for rounds, chunk_words in [(60, 7), (1, 1 << 16)]:
            highs = np.array([3 * 2**30, 2**32, 2**32 - 1, 3 * 2**30 + 1, 5] * rounds)
            spy = SpyGenerator(monkeypatch)
            monkeypatch.setattr(probability, "_CHUNK_WORDS", chunk_words)
            got = list(probability._trial_swaps(9, 12, highs))
            assert got == [self.numpy_draws(9, t, highs) for t in range(12)]
            want = [[9, t] for t in range(12) if self.rejects(9, t, highs)]
            assert spy.calls == want
            assert want, "no trial had a rejection"
            assert len(want) == 12 if rounds == 60 else len(want) < 12

    @pytest.mark.parametrize("k, d, trials", [(100_000, 2, 4), (60_000, 3, 2)])
    def test_trials_with_common_rejections_match_random_permutation(self, k, d, trials, monkeypatch):
        # 0.58 and 0.42 rejections a trial on average: 2**32 mod bound summed
        # over the bounds, over 2**32
        spy = SpyGenerator(monkeypatch)
        seed = 17
        for t, swaps in enumerate(probability._trial_swaps(seed, trials, _swap_bounds(k, d))):
            want = random_permutation(k, d, np.random.SeedSequence([seed, t])).matrix
            cols = _permutation_columns(k, d, swaps)
            assert sorted(zip(range(1, k + 1), *cols)) == sorted(want.ones), t
        assert spy.calls, "no trial had a rejection"

    def test_small_word_bound_leaves_estimates_alone(self, monkeypatch):
        # one trial per chunk, then also two trials per seeding pass
        points = [(34, 2, 2, 30, 11), (20, 2, 3, 30, 2026), (9, 3, 2, 30, 3)]
        want = [avoid_probability(*point) for point in points]
        monkeypatch.setattr(probability, "_CHUNK_WORDS", 3)
        assert [avoid_probability(*point) for point in points] == want
        monkeypatch.setattr(probability, "_STATE_CHUNK", 2)
        assert [avoid_probability(*point) for point in points] == want

    def test_estimate_across_a_chunk_edge_matches_matrix_path(self):
        k, ell, d, seed = 5, 2, 2, 31
        trials = probability._STATE_CHUNK + 5
        avoids = 0
        for t in range(trials):
            A = random_permutation(k, d, np.random.SeedSequence([seed, t])).matrix
            avoids += not has_interval_minor(A, all_ones((ell,) * d))
        assert avoid_probability(k, ell, d, trials, seed).avoid_count == avoids

    @pytest.mark.parametrize(
        "point, stubbed", [((5, 2, 2), "_allones_minor"), ((9, 3, 2), "_sweep"), ((8, 2, 3), "_sweep")]
    )
    def test_miss_goes_to_the_faster_sweep(self, point, stubbed, monkeypatch):
        # the pure sweep's step bound C(k-1, ell-1)^(d-1) * 2k is 40 at
        # (5, 2, 2), 504 at (9, 3, 2) and 784 at (8, 2, 3)
        def refuse(*args):
            raise AssertionError(f"{stubbed} ran")

        want = avoid_probability(*point, trials=40, seed=3)
        assert want.equal_split_misses > 0
        monkeypatch.setattr(containment, stubbed, refuse)
        assert avoid_probability(*point, trials=40, seed=3) == want

    def test_report_invariants_enforced(self):
        with pytest.raises(StructureError):
            EstimateReport(
                k=3, ell=2, d=2, trials=5, avoid_count=9, undecided=0,
                estimate=1.8, conf99=0.0, seed=0, equal_split_misses=9,
            )
        for misses in (1, 6):  # fewer than the avoiding trials, more than all
            with pytest.raises(StructureError):
                EstimateReport(
                    k=3, ell=2, d=2, trials=5, avoid_count=2, undecided=0,
                    estimate=0.4, conf99=0.0, seed=0, equal_split_misses=misses,
                )

    @pytest.mark.parametrize("k, d", [(3, 2), (7, 3), (15, 4)])
    def test_every_trial_misses_below_one_per_block(self, k, d):
        rep = avoid_probability(k, 2, d, trials=30, seed=4)
        assert rep.equal_split_misses == rep.avoid_count == rep.trials == 30

    def test_no_miss_at_the_threshold_when_every_split_hits(self):
        # the seed of a frozen (34, 2, 2) estimate with avoid_count 0
        rep = avoid_probability(34, 2, 2, trials=200, seed=11)
        assert (rep.avoid_count, rep.equal_split_misses) == (0, 0)

    def test_misses_count_splits_the_exact_sweep_overrules(self):
        # at (20, 2, 3) some splits miss a block, yet every trial contains J2
        rep = avoid_probability(20, 2, 3, trials=200, seed=11)
        assert rep.avoid_count == 0 < rep.equal_split_misses

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(
        k=st.integers(1, 40),
        ell=st.sampled_from([2, 3]),
        d=st.sampled_from([2, 3, 4]),
        seed=st.integers(0, 2**32),
    )
    # a split that misses on an avoider, and one the exact sweep overrules
    @example(k=5, ell=2, d=2, seed=4)
    @example(k=5, ell=2, d=2, seed=5)
    def test_trial_matches_matrix_path(self, k, ell, d, seed):
        # five trials of one estimate: what the trials share is built once per
        # estimate, so only trials t >= 1 would show it leaking between them
        ks, dims = (ell,) * d, (k,) * d
        avoids = misses = 0
        for t in range(5):
            ss = np.random.SeedSequence([seed, t])
            swaps = np.random.default_rng(ss).integers(0, _swap_bounds(k, d)).tolist()
            cols = _permutation_columns(k, d, swaps)
            A = random_permutation(k, d, ss).matrix
            assert sorted(zip(range(1, k + 1), *cols)) == sorted(A.ones)
            blocks = {tuple((c - 1) * ell // k for c in one) for one in A.ones}
            hits = len(blocks) == ell**d
            assert _equal_split_hits(A.ones, ks, dims) == hits
            contains = has_interval_minor(A, all_ones(ks))
            if t == 0 and math.comb(k + ell, 2 * ell) ** d <= 5000:
                # interval systems the oracle tries
                assert oracles.minor_oracle(A, all_ones(ks)) == contains
            avoids += not contains
            misses += not hits
        rep = avoid_probability(k, ell, d, trials=5, seed=seed)
        assert (rep.avoid_count, rep.equal_split_misses) == (avoids, misses)


class TestRatioLowerBound:
    def test_worked_examples(self):
        assert ratio_lower_bound(3, 2, 2) == Fraction(3, 4)
        assert ratio_lower_bound(1, 1, 3) == Fraction(1, 8)
        assert ratio_lower_bound(0, 7, 2) == 0

    def test_exactness(self):
        got = ratio_lower_bound(5, 3, 3)
        assert isinstance(got, Fraction)
        assert got == Fraction(5, 2**2 * 2 * 9)

    def test_consistency_with_measured_growth(self):
        # the ratio at n=3 clears the bound computed from n=2
        from patternforge.extremal import max_ones_avoiding
        from patternforge.tensor import TensorMatrix

        ident = TensorMatrix((2, 2), [(1, 1), (2, 2)])
        v2 = max_ones_avoiding(2, ident).value
        v3 = max_ones_avoiding(3, ident).value
        assert Fraction(v3, 3) >= ratio_lower_bound(v2, 2, 2)

    def test_rejects_bad_arguments(self):
        with pytest.raises(RangeError):
            ratio_lower_bound(1, 0, 2)
        with pytest.raises(RangeError):
            ratio_lower_bound(-1, 2, 2)
        with pytest.raises(RangeError):
            ratio_lower_bound(1, 2, 0)
