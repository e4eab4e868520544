"""Permutations written as cycles, the way the tests name group
generators."""

from locfusion.permgroup import GroupError, Perm, is_bijection


def from_cycles(degree: int, *cycles: tuple[int, ...]) -> Perm:
    """Build a permutation from disjoint cycles in 1-indexed points."""
    images = list(range(degree))
    for cyc in cycles:
        for i, pt in enumerate(cyc):
            images[pt - 1] = cyc[(i + 1) % len(cyc)] - 1
    p = tuple(images)
    if not is_bijection(p, degree):
        raise GroupError(f"cycles {cycles!r} are not disjoint on 1..{degree}")
    return p
