"""The group core against ``sympy.combinatorics`` on random permutation
groups: order, Sylow orders, center, and the centralizer of the Sylow
subgroup the library picks; the normal subgroups of the groups small
enough to list every subgroup, also against the lattice filter; and N_S(P) and Aut_S(P) on the S-indexed
kernel, for every subgroup P of each Sylow subgroup S, against sympy's
conjugation over all of S.  Skipped where sympy is not installed."""

import random
from math import factorial

import pytest

pytest.importorskip("sympy")
from sympy.combinatorics import Permutation, PermutationGroup  # noqa: E402

from locfusion.permgroup import (FiniteGroup, center, centralizer,  # noqa: E402
                                 sylow_subgroup)

from answer_oracles import (normal_subgroups,  # noqa: E402
                            normal_subgroups_by_lattice)

# the largest group whose subgroups are all listed here, by the reference
# ``normal_subgroups_by_lattice``: the lattice of the whole group takes
# seconds from A6 (order 360) on
NORMAL_ORDER_CAP = 120


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


SMALL = [(i, gens) for i, gens in enumerate(GENERATORS)
         if FiniteGroup(len(gens[0]), gens).order <= NORMAL_ORDER_CAP]


@pytest.mark.parametrize("gens", [gens for _, gens in SMALL],
                         ids=[f"group{i}" for i, _ in SMALL])
def test_normal_subgroups_match_sympy(gens):
    """Every listed normal subgroup is normal in sympy, and the normal
    closure of every element is listed; the list from the class closures
    is the lattice filter's, in the same order."""
    G = FiniteGroup(len(gens[0]), gens)
    sym = _sympy_group(gens)
    listed = [N.eset for N in normal_subgroups(G)]
    assert listed == [N.eset for N in normal_subgroups_by_lattice(G)]
    normal = set(listed)
    for N in normal:
        assert _sympy_group(sorted(N)).is_normal(sym)
    for g in G.elements:
        assert _elements(sym.normal_closure(Permutation(list(g)))) in normal


@pytest.mark.parametrize("gens", GENERATORS,
                         ids=[f"group{i}" for i in range(len(GENERATORS))])
def test_normalizers_and_aut_s_match_sympy(gens):
    """``SIndex.normalizer`` and ``aut_s`` on every subgroup P of each
    Sylow subgroup S: the s in S with P^s = P, and the maps they induce
    on the positions of P, with P^s computed by sympy."""
    G = FiniteGroup(len(gens[0]), gens)
    for p in _primes(G.order):
        S = sylow_subgroup(G, p)
        idx = G.sindex(S)
        sym_s = [Permutation(list(s)) for s in S.elements]
        conj = {(i, j): idx.pos[tuple((b ** -1 * a * b).array_form)]
                for i, a in enumerate(sym_s) for j, b in enumerate(sym_s)}
        for m in idx.lattice():
            ps = [i for i in range(len(sym_s)) if m >> i & 1]
            norm = [j for j in range(len(sym_s))
                    if {conj[i, j] for i in ps} == set(ps)]
            assert idx.normalizer(m) == sum(1 << j for j in norm)
            assert idx.aut_s(m).keys() == {tuple(conj[i, j] for i in ps)
                                           for j in norm}


def test_random_groups_are_varied():
    """The sample reaches degree 7, holds groups that are not the full
    symmetric group of their degree, and two thirds of it are small
    enough to list every subgroup."""
    assert max(len(g[0]) for g in GENERATORS) == 7
    assert len(SMALL) >= 20
    assert any(FiniteGroup(len(g[0]), g).order < factorial(len(g[0]))
               for g in GENERATORS)
