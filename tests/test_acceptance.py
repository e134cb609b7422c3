"""Acceptance suite: ten end-to-end checks, one visible pass line each.

Each check prints a single `[acceptance NN] ... PASS` line straight to the
terminal (bypassing capture) so a test-log scan shows one line per criterion.
Runtime ceilings are asserted where the check is meant to stay cheap.
"""

import math
import time
from fractions import Fraction

import numpy as np

from patternforge import (
    GridWitness,
    TensorMatrix,
    all_ones,
    blowup_avoider,
    avoid_probability,
    contains_pattern,
    corner_reduce,
    has_interval_minor,
    max_ones_avoiding,
    max_ones_avoiding_minor,
    probability_chain,
    random_permutation,
    side_threshold,
)
from patternforge.cli import main

from oracles import (
    all_tensors,
    contains_oracle,
    contains_via_contraction_oracle,
    max_ones_oracle,
)

IDENTITY2 = TensorMatrix((2, 2), [(1, 1), (2, 2)])
ANTI2 = TensorMatrix((2, 2), [(1, 2), (2, 1)])


def announce(capsys, num, label, detail):
    with capsys.disabled():
        print(f"[acceptance {num:02d}] {label}: PASS ({detail})")


def perms_2x2x2():
    """All four 2x2x2 permutation matrices."""
    out = []
    for s2 in ((1, 2), (2, 1)):
        for s3 in ((1, 2), (2, 1)):
            out.append(
                TensorMatrix((2, 2, 2), [(i, s2[i - 1], s3[i - 1]) for i in (1, 2)])
            )
    return out


def test_01_exact_extremal_values(capsys):
    """Max ones avoiding the 2x2 identity: 1, 3, 5, 7, 9 for n = 1..5,
    matching the scan-everything oracle through n = 4."""
    t0 = time.monotonic()
    expected = {1: 1, 2: 3, 3: 5, 4: 7, 5: 9}
    for n, want in expected.items():
        rec = max_ones_avoiding(n, IDENTITY2)
        assert rec.status == "exact"
        assert rec.value == want, f"n={n}: got {rec.value}, want {want}"
    for n in (1, 2, 3, 4):
        ov, _ = max_ones_oracle(
            (n, n), lambda M: not contains_oracle(M, IDENTITY2)
        )
        assert ov == expected[n], f"oracle disagrees at n={n}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    announce(capsys, 1, "exact extremal values",
             f"values 1,3,5,7,9; oracle match n<=4; {elapsed:.1f}s")


def test_02_permutation_equivalence(capsys):
    """For permutation patterns, ordinary containment and interval-minor
    containment are the same relation."""
    t0 = time.monotonic()
    pairs = 0
    for A in all_tensors((3, 3)):
        for P in (IDENTITY2, ANTI2):
            assert contains_pattern(A, P) == has_interval_minor(A, P)
            pairs += 1
    assert pairs == 1024
    rng = np.random.default_rng(20260814)
    pats = perms_2x2x2()
    for _ in range(100):
        p = rng.uniform(0.05, 0.5)
        grid = rng.random((4, 4, 4)) < p
        A = TensorMatrix(
            (4, 4, 4),
            [tuple(int(i) + 1 for i in idx) for idx in zip(*np.nonzero(grid))],
        )
        for P in pats:
            assert contains_pattern(A, P) == has_interval_minor(A, P)
            pairs += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    announce(capsys, 2, "permutation equivalence",
             f"{pairs} pairs, zero disagreements; {elapsed:.1f}s")


def test_03_ordinary_bounded_by_minor(capsys):
    """Avoiding a 2x2 permutation is harder than avoiding the 2x2 all-ones
    interval minor, so the extremal values are ordered."""
    R22 = all_ones((2, 2))
    checked = []
    for n in (1, 2, 3, 4):
        m_rec = max_ones_avoiding_minor(n, R22)
        assert m_rec.status == "exact"
        for P in (IDENTITY2, ANTI2):
            f_rec = max_ones_avoiding(n, P)
            assert f_rec.status == "exact"
            assert f_rec.value <= m_rec.value
            checked.append((n, f_rec.value, m_rec.value))
    announce(capsys, 3, "f <= m at matching sizes",
             f"{len(checked)} (n, pattern) pairs ordered")


def test_04_blowup_construction(capsys):
    """200 randomized valid blow-up instances: output avoids the side-k
    all-ones minor and has exactly binom(s+d-2, d-1) * ones(N) ones."""
    t0 = time.monotonic()
    rng = np.random.default_rng(1234)
    done = 0
    while done < 200:
        d = int(rng.integers(2, 4))
        hi = 4 if d == 2 else 3
        dims = tuple(int(rng.integers(1, hi + 1)) for _ in range(d))
        s = int(rng.integers(1, 4))
        if done % 10 == 9:
            k, N = 2, TensorMatrix(dims, [])  # only the zero matrix is valid here
        else:
            k = 3
            grid = rng.random(dims) < 0.15
            N = TensorMatrix(
                dims,
                [tuple(int(i) + 1 for i in idx) for idx in zip(*np.nonzero(grid))],
            )
            if has_interval_minor(N, all_ones((k - 1,) * d)):
                continue
        out = blowup_avoider(s, N, k, verify=False)
        assert out.ones_count == math.comb(s + d - 2, d - 1) * N.ones_count
        assert not has_interval_minor(out, all_ones((k,) * d))
        done += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    announce(capsys, 4, "blow-up avoider",
             f"200 instances, zero failures; {elapsed:.1f}s")


def test_05_scaling_inequalities(capsys):
    """Finite scaling bounds on exact values, in exact rational arithmetic:
    f(s*n) >= s * f(n) and m(2t, side k) >= 2 * m(t, side k-1) for d = 2."""
    f = {n: max_ones_avoiding(n, IDENTITY2).value for n in (1, 2, 3, 4)}
    for n, s in ((1, 2), (1, 3), (2, 2)):
        lhs = Fraction(f[s * n])
        rhs = Fraction(s ** 1, math.factorial(1)) * f[n]
        assert lhs >= rhs, f"(n={n}, s={s}): {lhs} < {rhs}"
    m = {}
    for side in (1, 2, 3):
        for t in (1, 2, 4):
            m[t, side] = max_ones_avoiding_minor(t, all_ones((side, side))).value
    s = 2
    for k in (2, 3):
        for t in (1, 2):
            lhs = Fraction(m[s * t, k])
            rhs = Fraction(s ** 1, math.factorial(1)) * m[t, k - 1]
            assert lhs >= rhs, f"(k={k}, t={t}): {lhs} < {rhs}"
    announce(capsys, 5, "scaling inequalities",
             "3 ordinary + 4 minor bounds hold exactly")


def test_06_monte_carlo_threshold(capsys):
    """At the computed threshold size the avoidance probability estimate sits
    at or below 1/2, with exact anchors at both degenerate ends."""
    t0 = time.monotonic()
    k = side_threshold(2, 2)
    assert k == 34
    rep = avoid_probability(k, 2, 2, trials=2000, seed=20260814)
    assert rep.undecided == 0
    assert rep.estimate + rep.conf99 <= 0.5
    anchor_hi = avoid_probability(2, 2, 2, trials=200, seed=7)
    assert anchor_hi.estimate == 1.0 and anchor_hi.undecided == 0
    anchor_lo = avoid_probability(5, 1, 2, trials=200, seed=7)
    assert anchor_lo.estimate == 0.0 and anchor_lo.undecided == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    announce(capsys, 6, "Monte Carlo threshold",
             f"estimate {rep.estimate} + {rep.conf99:.4f} <= 0.5, "
             f"anchors 1.0/0.0; {elapsed:.1f}s")


def test_07_probability_chain(capsys):
    """The four-expression probability bound is strictly decreasing at every
    threshold point, and the closing identity is exact."""
    for ell in (2, 3):
        for d in (2, 3):
            k = side_threshold(ell, d)
            rep = probability_chain(k, ell, d)
            assert rep.strict
            v = rep.values
            assert v[0] < v[1] < v[2] < v[3]
            assert Fraction(ell) ** d * Fraction(1, ell ** (d + 1)) == Fraction(1, ell)
    announce(capsys, 7, "probability chain",
             "strict at all four threshold points; closing identity exact")


def test_08_witness_vs_contraction_oracle(capsys):
    """The grid-witness decider agrees with the literal contraction-sequence
    definition on every host up to 3x3 and target up to 2x2."""
    t0 = time.monotonic()
    targets = [
        B
        for bd in ((1, 1), (1, 2), (2, 1), (2, 2))
        for B in all_tensors(bd)
    ]
    pairs = 0
    for ad in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3),
               (3, 1), (3, 2), (3, 3)):
        for A in all_tensors(ad):
            for B in targets:
                assert has_interval_minor(A, B) == contains_via_contraction_oracle(A, B)
                pairs += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    announce(capsys, 8, "witness vs contraction oracle",
             f"{pairs} pairs agree; {elapsed:.1f}s")


def test_09_corner_reduction_suite(capsys):
    """25 constructed permutations with valid side-2 witnesses whose leading
    block holds exactly one 1: both reduction claims hold every time."""
    rng = np.random.default_rng(99)
    done = 0
    while done < 25:
        n = int(rng.integers(4, 9))
        P = random_permutation(n, 2, int(rng.integers(0, 2 ** 32)))
        sr = int(rng.integers(1, n))
        sc = int(rng.integers(1, n))
        counts = {(1, 1): 0, (1, 2): 0, (2, 1): 0, (2, 2): 0}
        for (r, c) in P.matrix.ones:
            counts[(1 if r <= sr else 2, 1 if c <= sc else 2)] += 1
        if counts[(1, 1)] != 1 or min(counts.values()) == 0:
            continue
        W = GridWitness([[(1, sr), (sr + 1, n)], [(1, sc), (sc + 1, n)]])
        red = corner_reduce(P, W)
        assert red.has_corner_one, f"corner claim failed: n={n} splits=({sr},{sc})"
        assert red.keeps_smaller_minor, f"minor claim failed: n={n} splits=({sr},{sc})"
        done += 1
    announce(capsys, 9, "corner reduction", "25 instances, zero failed claims")


def test_10_cli_determinism(capsys, tmp_path):
    """Fixed-seed CLI invocations emit byte-identical output across three
    runs at --threads 1 and --threads 4."""
    pattern = tmp_path / "P.tsr"
    pattern.write_text("dims: 2 2\n1 1\n2 2\n")
    cache = tmp_path / "cache"
    invocations = [
        ["construct", "random-perm", "--k", "6", "--d", "3", "--seed", "5",
         "--format", "json"],
        ["prob", "estimate", "--k", "12", "--ell", "2", "--d", "2",
         "--trials", "150", "--seed", "9", "--format", "json"],
        ["minor", "--a", "allones:4,4", "--b", "allones:2,2", "--format", "json"],
        ["extremal", "f", "--n", "4", "--pattern", str(pattern),
         "--cache-dir", str(cache), "--format", "json"],
    ]
    for argv in invocations:
        outputs = set()
        codes = set()
        for threads in ("1", "4"):
            for _ in range(3):
                codes.add(main(argv + ["--threads", threads]))
                outputs.add(capsys.readouterr().out.encode())
        assert len(outputs) == 1, f"output varies for {' '.join(argv)}"
        assert len(codes) == 1
    announce(capsys, 10, "CLI determinism",
             f"{len(invocations)} invocations x 6 runs each, byte-identical")
