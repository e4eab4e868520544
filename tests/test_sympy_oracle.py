"""The group core against ``sympy.combinatorics`` on random permutation
groups: order, Sylow orders, center, and the centralizer of the Sylow
subgroup the library picks.  Skipped where sympy is not installed."""

import random
from math import factorial

import pytest

pytest.importorskip("sympy")
from sympy.combinatorics import Permutation, PermutationGroup  # noqa: E402

from locfusion.permgroup import (FiniteGroup, center, centralizer,  # noqa: E402
                                 sylow_subgroup)


def _random_generators(count=30, seed=0):
    """``count`` generator lists: 2-3 random permutations of degree 2..7."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        degree = rng.randint(2, 7)
        out.append([tuple(rng.sample(range(degree), degree))
                    for _ in range(rng.randint(2, 3))])
    return out


GENERATORS = _random_generators()


def _sympy_group(perms):
    return PermutationGroup([Permutation(list(g)) for g in perms])


def _elements(sym):
    return {tuple(x.array_form) for x in sym.generate()}


def _primes(n):
    return [p for p in range(2, n + 1)
            if n % p == 0 and all(p % d for d in range(2, p))]


@pytest.mark.parametrize("gens", GENERATORS,
                         ids=[f"group{i}" for i in range(len(GENERATORS))])
def test_group_kernels_match_sympy(gens):
    G = FiniteGroup(len(gens[0]), gens)
    sym = _sympy_group(gens)
    assert G.order == sym.order()
    assert set(center(G.full_subgroup()).elements) == _elements(sym.center())
    for p in _primes(G.order):
        S = sylow_subgroup(G, p)
        assert S.order == sym.sylow_subgroup(p).order()
        assert set(centralizer(G, S).elements) == \
            _elements(sym.centralizer(_sympy_group(S.elements)))


def test_random_groups_are_varied():
    """The sample reaches degree 7, and holds groups that are not the
    full symmetric group of their degree."""
    assert max(len(g[0]) for g in GENERATORS) == 7
    assert any(FiniteGroup(len(g[0]), g).order < factorial(len(g[0]))
               for g in GENERATORS)
