"""Recompute the pack values of the pentagon blow-up families.

For each listed blob-size family (optionally with one cross edge flipped),
this builds the colouring, solves both colour classes' fractional triangle
packing LPs exactly, and compares the result against the closed form
3 * sum(C(size, 2)) (+3 for the one-flip variants).  It also prints the
extension threshold n(n+1)/4 and the competing bipartite value
floor((n-1)^2/4) for context: a family matters exactly when its pack value
stays below the threshold while beating the bipartite construction is
impossible.
"""

from monopack import (
    TABLE1,
    BlobSpec,
    flipped_blowup,
    pack,
    pentagon_blowup,
    pentagon_pack_closed_form,
)
from monopack.search import default_threshold


def main() -> None:
    header = f"{'family':>10} {'n':>3} {'pack':>6} {'closed':>6} {'thresh':>8} {'bip':>5}"
    print(header)
    print("-" * len(header))
    for sizes, flipped, expected in TABLE1:
        spec = BlobSpec(sizes)
        g = flipped_blowup(spec) if flipped else pentagon_blowup(spec)[0]
        value = pack(g).value
        closed = pentagon_pack_closed_form(sizes, flipped)
        assert value == closed == expected
        name = "".join(map(str, sizes)) + ("*" if flipped else "")
        threshold = default_threshold(g.n)
        bip = (g.n - 1) ** 2 // 4
        print(
            f"{name:>10} {g.n:>3} {str(value):>6} {str(closed):>6} "
            f"{str(threshold):>8} {bip:>5}"
        )
    print("\nall rows match the closed form and the expected values")


if __name__ == "__main__":
    main()
