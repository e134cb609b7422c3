"""Tour of the two containment orders on 0-1 tensors.

Ordinary containment asks for strictly increasing per-axis index maps
carrying every 1 of the pattern onto a 1 of the host.  Interval-minor
containment is coarser: it only needs disjoint increasing intervals per
axis whose designated blocks are all nonempty.  For permutation patterns
the two coincide; in general they do not, and this script shows both a
witness and a separation.
"""

from patternforge import (
    GridWitness,
    TensorMatrix,
    all_ones,
    antidiagonal,
    contains_interval_minor,
    contains_pattern,
    find_embedding,
    serialize_tensor,
    verify_witness,
)


def show(title, A):
    print(f"{title}:")
    for line in serialize_tensor(A).rstrip().splitlines():
        print(f"  {line}")


def main():
    host = TensorMatrix((4, 4), [(1, 1), (1, 4), (2, 2), (3, 3), (4, 1), (4, 4)])
    identity = TensorMatrix((2, 2), [(1, 1), (2, 2)])
    show("host", host)
    show("pattern (2x2 identity)", identity)

    emb = find_embedding(host, identity)
    print("\nordinary containment:", emb is not None)
    for pat, img in emb:
        print(f"  pattern 1 at {pat} -> host 1 at {img}")

    W = contains_interval_minor(host, identity)
    print("\ninterval-minor witness (lex-least):")
    for ax, intervals in enumerate(W.axes, start=1):
        print(f"  axis {ax}: {intervals}")
    print("  verifies:", verify_witness(host, identity, W))

    # the antidiagonal plane avoids the 2x2 all-ones as a minor: any two
    # disjoint row intervals and two disjoint column intervals leave one
    # corner block empty
    plane = antidiagonal(4, 2)
    show("\nantidiagonal(4, 2)", plane)
    print("contains all-ones 2x2 as minor:",
          contains_interval_minor(plane, all_ones((2, 2))) is not None)

    # minors are coarser than ordinary containment: the identity matrix has
    # no row with two ones, yet contracting its columns into one interval
    # produces the 1x2 all-ones block
    pair = all_ones((1, 2))
    show("\nhost without two ones in a row", identity)
    print("ordinary 1x2 all-ones containment:", contains_pattern(identity, pair))
    print("1x2 all-ones minor:",
          contains_interval_minor(identity, pair) is not None)

    # witnesses survive JSON round trips, so they can be shipped around
    again = GridWitness.from_json(W.to_json())
    print("\nwitness JSON round-trip intact:", again == W)


if __name__ == "__main__":
    main()
