"""Explicit matrix constructions: permutation generators, two blow-up
avoiders built from Kronecker products with (reflected) antidiagonals, and
the corner reduction procedure.

The two avoiders are checked constructions: after building the output they
always re-verify the avoidance claim with the exact containment deciders and
raise VerificationError if it fails, since a failure would mean a bug here or
in the deciders, never bad input.  Both checks read only the list of ones of
the output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .containment import (
    GridWitness,
    contains_pattern,
    extend_to_partition,
    find_embedding,
    has_interval_minor,
    verify_witness,
)
from .errors import PreconditionError, RangeError, StructureError, VerificationError
from .tensor import (
    Coord,
    PermutationTensor,
    TensorMatrix,
    _check_same_d,
    all_ones,
    antidiagonal,
    corner_ones,
    kronecker,
)


def identity_permutation(k: int, d: int) -> PermutationTensor:
    """Ones exactly on the d-fold diagonal (i, i, ..., i)."""
    if k < 1 or d < 2:
        raise RangeError(f"need k >= 1 and d >= 2, got k={k}, d={d}")
    ones = [(i,) * d for i in range(1, k + 1)]
    return PermutationTensor(TensorMatrix((k,) * d, ones))


def _fisher_yates(k: int, rng: np.random.Generator) -> list[int]:
    perm = list(range(1, k + 1))
    for i in range(k - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def random_permutation(
    k: int, d: int, seed: int | np.random.SeedSequence
) -> PermutationTensor:
    """Random permutation matrix: ones at (i, s_2(i), ..., s_d(i)) for d-1
    independent uniform permutations s_2..s_d, Fisher-Yates shuffled from the
    seeded generator.  Deterministic for a fixed seed."""
    if k < 1 or d < 2:
        raise RangeError(f"need k >= 1 and d >= 2, got k={k}, d={d}")
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(int(seed))
    rng = np.random.default_rng(seed)
    perms = [_fisher_yates(k, rng) for _ in range(d - 1)]
    ones = [
        tuple([i] + [perm[i - 1] for perm in perms]) for i in range(1, k + 1)
    ]
    return PermutationTensor(TensorMatrix((k,) * d, ones))


def blowup_avoider(s: int, N: TensorMatrix, k: int) -> TensorMatrix:
    """Kronecker blow-up antidiagonal(s, d) (x) N.

    When N avoids the all-ones pattern of side k-1 as an interval minor, the
    product avoids the all-ones pattern of side k: witness intervals would
    have to spread over the antidiagonal's blocks, and no axis partition can
    give every block row of an antidiagonal more than one nonzero block.
    The precondition on N is checked, and the output claim is re-verified.
    """
    if s < 1:
        raise RangeError(f"need s >= 1, got {s}")
    if k < 2:
        raise RangeError(f"need k >= 2, got {k}")
    d = N.d
    smaller = all_ones((k - 1,) * d)
    if has_interval_minor(N, smaller):
        raise PreconditionError(
            f"input contains the all-ones side-{k - 1} pattern as an interval minor"
        )
    out = kronecker(antidiagonal(s, d), N)
    target = all_ones((k,) * d)
    if has_interval_minor(out, target):
        raise VerificationError(
            "blow-up output contains the side-%d all-ones pattern it must "
            "avoid; this is an implementation bug" % k
        )
    return out


def _reflect(M: TensorMatrix, axes: frozenset[int]) -> TensorMatrix:
    """Mirror the listed axes (0-based): coordinate i becomes n + 1 - i."""
    if not axes:
        return M
    ones = [
        tuple(
            n + 1 - c if ax in axes else c
            for ax, (c, n) in enumerate(zip(coord, M.dims))
        )
        for coord in M.ones
    ]
    return TensorMatrix(M.dims, ones)


def scale_avoider(s: int, A: TensorMatrix, P: TensorMatrix) -> TensorMatrix:
    """Scale an avoider of P up by s per axis without creating a copy of P.

    Requires a corner 1-entry in P.  The output is M (x) A where M is the
    antidiagonal of side s mirrored on every axis where the chosen corner
    sits at the far end.  Any embedding of P would then be forced entirely
    into a single block (every 1 of P is componentwise between the corner
    and the opposite corner, and the mirrored antidiagonal turns that into
    equality of block coordinates), contradicting that A avoids P.
    """
    if s < 1:
        raise RangeError(f"need s >= 1, got {s}")
    _check_same_d(A, P)
    corners = corner_ones(P)
    if not corners:
        raise PreconditionError("pattern has no corner 1-entry")
    emb = find_embedding(A, P)
    if emb is not None:
        raise PreconditionError(
            f"input does not avoid the pattern (embedding {emb})"
        )
    corner = corners[0]  # lex-least corner 1-entry
    mirror = frozenset(
        ax for ax, (c, kk) in enumerate(zip(corner, P.dims)) if kk > 1 and c == kk
    )
    M = _reflect(antidiagonal(s, A.d), mirror)
    out = kronecker(M, A)
    bad = find_embedding(out, P)
    if bad is not None:
        raise VerificationError(
            f"scaled output contains the pattern via embedding {bad}; "
            "this is an implementation bug"
        )
    return out


# ---------------------------------------------------------------------------
# corner reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CornerReduction:
    """Result of one corner-reduction step, with its claim checks.

    The two claims (a corner 1-entry exists; the side-(l-1) all-ones pattern
    is still an interval minor) are verified rather than assumed; a failing
    claim is reported here, not raised.
    """

    matrix: TensorMatrix
    has_corner_one: bool
    keeps_smaller_minor: bool
    removed_boundary: tuple[Coord, ...]
    removed_pivot: Coord
    partition: GridWitness

    @property
    def checks_pass(self) -> bool:
        return self.has_corner_one and self.keeps_smaller_minor


def _drop_empty_cross_sections(A: TensorMatrix) -> TensorMatrix:
    """Remove every index with no ones on each axis, compacting coordinates."""
    if A.is_zero:
        raise PreconditionError("cannot compact a zero matrix away entirely")
    remaps = []
    for ax in range(A.d):
        used = sorted({c[ax] for c in A.ones})
        remaps.append({old: new for new, old in enumerate(used, start=1)})
    ones = [tuple(remaps[ax][c[ax]] for ax in range(A.d)) for c in A.ones]
    return TensorMatrix(tuple(len(r) for r in remaps), ones)


def corner_reduce(P: PermutationTensor, W: GridWitness) -> CornerReduction:
    """One reduction step against an all-ones interval-minor witness.

    With W certifying that P contains the all-ones pattern of side l on every
    axis, delete (1) every 1 whose block coordinate under the partition
    extension of W touches 1 on some axis, sparing block (1,...,1); then
    (2) the lexicographically least 1 in block (2,...,2); then (3) all empty
    cross sections.  The returned report records both deletions and whether
    the surviving matrix has a corner 1-entry and still contains the side-
    (l-1) all-ones pattern as an interval minor.
    """
    A = P.matrix
    d = A.d
    counts = {len(ivs) for ivs in W.axes}
    if len(counts) != 1:
        raise PreconditionError(
            "witness must have the same interval count on every axis"
        )
    ell = counts.pop()
    if ell < 2:
        raise PreconditionError("need at least 2 intervals per axis")
    target = all_ones((ell,) * d)
    try:
        ok = verify_witness(A, target, W)
    except StructureError as exc:
        raise PreconditionError(f"invalid witness: {exc}") from None
    if not ok:
        raise PreconditionError("witness has an empty required block")

    part = extend_to_partition(W, A.dims)
    block_of = {c: part.locate(c) for c in A.ones}

    removed_boundary = tuple(
        sorted(
            c
            for c, t in block_of.items()
            if 1 in t and t != (1,) * d
        )
    )
    survivors = set(A.ones) - set(removed_boundary)
    pivot_block = (2,) * d
    pivots = sorted(c for c in survivors if block_of[c] == pivot_block)
    # the witness guarantees block (2,...,2) is nonempty, so pivots exist
    removed_pivot = pivots[0]
    survivors.discard(removed_pivot)

    reduced = _drop_empty_cross_sections(TensorMatrix(A.dims, survivors))
    smaller = all_ones((ell - 1,) * d)
    return CornerReduction(
        matrix=reduced,
        has_corner_one=bool(corner_ones(reduced)),
        keeps_smaller_minor=has_interval_minor(reduced, smaller),
        removed_boundary=removed_boundary,
        removed_pivot=removed_pivot,
        partition=part,
    )
