"""Answer checks that do not use patternforge's own deciders.

Each check works from the mathematical definition, on the small instances
the workloads send, so that a wrong answer from the package cannot also
pass here by sharing a bug with it.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import math

# z(n; 2): most ones in an n x n 0-1 matrix with no 2 x 2 all-ones submatrix
ZARANKIEWICZ_2 = {2: 3, 3: 6, 4: 9, 5: 12, 6: 16}


def lis_length(seq) -> int:
    """Longest strictly increasing subsequence, by patience sorting."""
    tops: list[int] = []
    for x in seq:
        i = bisect.bisect_left(tops, x)
        if i == len(tops):
            tops.append(x)
        else:
            tops[i] = x
    return len(tops)


def contains_literal(host, dims, pattern, kdims) -> bool:
    """Ordinary containment by trying every choice of k_l indices on every
    axis: P sits in the submatrix those indices select."""
    host = set(host)
    if any(k > n for k, n in zip(kdims, dims)):
        return False
    choices = [list(itertools.combinations(range(1, n + 1), k)) for n, k in zip(dims, kdims)]
    for rows in itertools.product(*choices):
        if all(tuple(rows[ax][c[ax] - 1] for ax in range(len(c))) in host for c in pattern):
            return True
    return False


def _cut_charts(n: int, k: int):
    """For every split of 1..n into k consecutive nonempty parts, the part
    index (1-based) of each coordinate, as a list indexed by coordinate."""
    for mids in itertools.combinations(range(1, n), k - 1):
        bounds = mids + (n,)
        yield [0] + [bisect.bisect_left(bounds, c) + 1 for c in range(1, n + 1)]


def minor_literal(host, dims, pattern, kdims) -> bool:
    """Interval-minor containment by scanning every partition of every axis
    into k_l consecutive parts.  Widening witness intervals keeps each
    required block nonempty, so some full partition works whenever any
    witness does."""
    if any(k > n for k, n in zip(kdims, dims)):
        return False
    need = set(map(tuple, pattern))
    host = [tuple(c) for c in host]
    if len(host) < len(need):
        return False
    charts = [list(_cut_charts(n, k)) for n, k in zip(dims, kdims)]
    d = len(dims)
    for combo in itertools.product(*charts):
        hit = {tuple(combo[ax][c[ax]] for ax in range(d)) for c in host}
        if need <= hit:
            return True
    return False


def embedding_error(host, dims, pattern, kdims, pairs) -> str | None:
    """Re-check an embedding (pattern one -> host one pairs) against the
    definition: every pattern one is used once and lands on a host one, and
    on every axis the induced map is a function that is strictly increasing
    and leaves room for the unused pattern indices at both ends."""
    host = set(map(tuple, host))
    pattern = sorted(map(tuple, pattern))
    if sorted(tuple(p) for p, _ in pairs) != pattern:
        return "embedding does not cover the pattern ones exactly once"
    maps: list[dict[int, int]] = [dict() for _ in dims]
    for p, h in pairs:
        p, h = tuple(p), tuple(h)
        if h not in host:
            return f"pattern one {p} sent to {h}, which is not a host one"
        for ax, (pc, hc) in enumerate(zip(p, h)):
            if maps[ax].setdefault(pc, hc) != hc:
                return f"axis {ax + 1}: pattern index {pc} sent to two host indices"
    for ax, (m, n, k) in enumerate(zip(maps, dims, kdims)):
        items = sorted(m.items())
        for p, v in items:
            if not p <= v <= n - (k - p):
                return f"axis {ax + 1}: index {p} -> {v} leaves no room to extend"
        for (p, v), (q, w) in zip(items, items[1:]):
            if w - v < q - p:
                return f"axis {ax + 1}: {p}->{v}, {q}->{w} is not extendable"
    return None


def grid_witness_error(host, dims, pattern, kdims, axes) -> str | None:
    """Re-check a grid witness: per axis k_l disjoint increasing intervals
    inside the extent, and every block a pattern one selects holds a host
    one."""
    if len(axes) != len(dims):
        return "witness has the wrong number of axes"
    for ax, (ivs, n, k) in enumerate(zip(axes, dims, kdims)):
        if len(ivs) != k:
            return f"axis {ax + 1}: {len(ivs)} intervals, pattern extent {k}"
        prev = 0
        for a, b in ivs:
            if not prev < a <= b <= n:
                return f"axis {ax + 1}: interval [{a},{b}] out of order or range"
            prev = b
    host = [tuple(c) for c in host]
    for c in pattern:
        box = [axes[ax][j - 1] for ax, j in enumerate(c)]
        if not any(all(a <= h[ax] <= b for ax, (a, b) in enumerate(box)) for h in host):
            return f"block of pattern one {tuple(c)} holds no host one"
    return None


def has_corner_one(ones, dims) -> bool:
    return any(all(c == 1 or c == n for c, n in zip(one, dims)) for one in ones)


# -- binomial test for Monte Carlo counts --------------------------------------

# per-test false-alarm level; small enough that a correct program does not
# trip it across every request of every run the benchmark will ever make
ALPHA = 1e-9


def _log_pmf(n: int, x: int, p: float) -> float:
    if p <= 0.0:
        return 0.0 if x == 0 else -math.inf
    if p >= 1.0:
        return 0.0 if x == n else -math.inf
    return (
        math.lgamma(n + 1) - math.lgamma(x + 1) - math.lgamma(n - x + 1)
        + x * math.log(p) + (n - x) * math.log1p(-p)
    )


def binom_cdf(x: int, n: int, p: float) -> float:
    """P(X <= x) for X ~ Binomial(n, p)."""
    if x < 0:
        return 0.0
    if x >= n:
        return 1.0
    return min(1.0, sum(math.exp(_log_pmf(n, i, p)) for i in range(x + 1)))


def binom_sf(x: int, n: int, p: float) -> float:
    """P(X >= x) for X ~ Binomial(n, p)."""
    return 1.0 - binom_cdf(x - 1, n, p)


def binomial_error(count: int, trials: int, p_lo: float, p_hi: float) -> str | None:
    """Is `count` avoiders out of `trials` consistent with a reference
    probability known to lie in [p_lo, p_hi]?  Fails only when the count
    sits in an ALPHA tail of the binomial at both ends of that interval."""
    if binom_sf(count, trials, p_hi) < ALPHA:
        return f"{count}/{trials} avoiders is too many for p <= {p_hi:.4g}"
    if binom_cdf(count, trials, p_lo) < ALPHA:
        return f"{count}/{trials} avoiders is too few for p >= {p_lo:.4g}"
    return None


def digest(payload) -> str:
    """Stable fingerprint of a JSON answer, for the frozen default-seed table."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]
