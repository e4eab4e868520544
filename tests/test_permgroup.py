"""Group-core checks against independent brute-force oracles.

``answer_oracles.normalizer`` and ``answer_oracles.ref_sylow_subgroup``
are the Sylow search the library replaced: N_G(P) built by conjugating
every element of P by every element of G, and the least p-element of it
outside P adjoined at each step.
"""

import functools
import itertools
import time

import pytest

from locfusion import permgroup
from locfusion.instances import Instance, load_descriptor
from locfusion.permgroup import (FiniteGroup, GroupError, SizeCapExceeded,
                                 Subgroup, all_subgroups, cayley_group, center,
                                 centralizer, compose, conjugate,
                                 generated_subgroup, identity_perm, inverse,
                                 is_characteristic_p, is_p_group, is_prime,
                                 p_core, perm_order, sylow_subgroup)

from answer_oracles import (join_closure_lattice, local_group,
                            normal_subgroups, normalizer, ref_sylow_subgroup)
from cycles import from_cycles


def test_compose_and_inverse():
    a = from_cycles(4, (1, 2, 3, 4))
    b = from_cycles(4, (1, 2))
    ab = compose(a, b)
    # apply a first, then b
    assert ab[0] == b[a[0]]
    assert compose(a, inverse(a)) == identity_perm(4)
    assert perm_order(a) == 4 and perm_order(b) == 2


@pytest.mark.parametrize("degree", [0, 1, 2, 7])
def test_compose_matches_pointwise_definition(degree):
    perms = list(itertools.permutations(range(degree)))
    pairs = itertools.product(perms, repeat=2) if degree <= 2 else \
        zip(perms[::97], perms[::-113])
    for a, b in pairs:
        ab = compose(a, b)
        assert type(ab) is tuple and ab == tuple(b[x] for x in a)


@pytest.mark.parametrize("degree", [0, 1, 5, 6])
def test_perm_order_matches_repeated_composition(degree):
    e = identity_perm(degree)
    for a in itertools.permutations(range(degree)):
        n, x = 1, a
        while x != e:
            x, n = compose(x, a), n + 1
        assert perm_order(a) == n, a


def test_conjugate_matches_definition():
    a = from_cycles(5, (1, 2, 3))
    g = from_cycles(5, (3, 4, 5))
    assert conjugate(a, g) == compose(compose(inverse(g), a), g)


def test_from_cycles_rejects_overlap():
    with pytest.raises(GroupError):
        from_cycles(4, (1, 2), (2, 3))


def test_group_closure_sizes():
    d8 = FiniteGroup(4, [from_cycles(4, (1, 2, 3, 4)),
                         from_cycles(4, (1, 3))])
    assert len(d8) == 8
    s4 = FiniteGroup(4, [from_cycles(4, (1, 2, 3, 4)),
                         from_cycles(4, (1, 2))])
    assert len(s4) == 24


@pytest.mark.parametrize("name", ["S4", "A5", "S3xS3", "S6xC2"])
def test_closure_cap_boundary(name):
    """The cap fires exactly when the group has more elements than it."""
    G = _sylow_group(name)
    n = len(G)
    assert FiniteGroup(G.degree, G.generators, max_size=n).elements == \
        G.elements
    with pytest.raises(SizeCapExceeded,
                       match=f"^closure exceeds cap of {n - 1} elements$"):
        FiniteGroup(G.degree, G.generators, max_size=n - 1)


def test_group_cap():
    with pytest.raises(SizeCapExceeded):
        FiniteGroup(5, [from_cycles(5, (1, 2, 3, 4, 5)),
                        from_cycles(5, (1, 2))], max_size=100)


def _brute_subgroups(elements):
    """Oracle: filter every subset of a small group for closure."""
    elements = list(elements)
    found = []
    for r in range(1, len(elements) + 1):
        for combo in itertools.combinations(elements, r):
            s = set(combo)
            if identity_perm(len(elements[0])) not in s:
                continue
            if all(compose(a, b) in s for a in s for b in s):
                found.append(frozenset(s))
    return set(found)


def test_all_subgroups_matches_brute_force():
    d8 = FiniteGroup(4, [from_cycles(4, (1, 2, 3, 4)),
                         from_cycles(4, (1, 3))])
    oracle = _brute_subgroups(d8.elements)
    mine = {P.eset for P in all_subgroups(d8)}
    assert mine == oracle
    assert len(mine) == 10


def test_all_subgroups_s4_count(s4):
    """S4 is not a p-group, so its lattice comes from the join-closure
    oracle."""
    assert len(join_closure_lattice(s4.sindex(s4.full_subgroup()))) == 30


def test_sylow_subgroup_orders(s4, s5):
    assert sylow_subgroup(s4, 2).order == 8
    assert sylow_subgroup(s4, 3).order == 3
    assert sylow_subgroup(s5, 2).order == 8
    assert sylow_subgroup(s5, 5).order == 5


def test_sylow_deterministic(s4):
    assert sylow_subgroup(s4, 2).elements == sylow_subgroup(s4, 2).elements


def test_p_core_s4_is_klein(s4, klein):
    assert p_core(s4, 2).eset == klein.eset
    assert p_core(s4, 3).order == 1


def test_normalizer_centralizer_brute_force(s4, klein):
    n_oracle = {g for g in s4
                if all(conjugate(x, g) in klein.eset for x in klein)}
    assert normalizer(s4, klein).eset == frozenset(n_oracle)
    c_oracle = {g for g in s4
                if all(compose(g, x) == compose(x, g) for x in klein)}
    assert centralizer(s4, klein).eset == frozenset(c_oracle)


def _group(degree, *gens):
    return FiniteGroup(degree, [from_cycles(degree, *c) for c in gens])


SYLOW_GROUPS = {
    "S4": lambda: _group(4, [(1, 2, 3, 4)], [(1, 2)]),
    "S5": lambda: _group(5, [(1, 2, 3, 4, 5)], [(1, 2)]),
    "A5": lambda: _group(5, [(1, 2, 3, 4, 5)], [(1, 2, 3)]),
    "S6": lambda: _group(6, [(1, 2, 3, 4, 5, 6)], [(1, 2)]),
    "S3xS3": lambda: _group(6, [(1, 2, 3)], [(1, 2)], [(4, 5, 6)],
                            [(4, 5)]),
    "S4xS2": lambda: _group(6, [(1, 2, 3, 4)], [(1, 2)], [(5, 6)]),
    "S6xC2": lambda: _group(8, [(1, 2, 3, 4, 5, 6)], [(1, 2)], [(7, 8)]),
    "S7": lambda: _group(7, [(1, 2, 3, 4, 5, 6, 7)], [(1, 2)]),
}


@functools.cache
def _sylow_group(name):
    return SYLOW_GROUPS[name]()


def _primes(n):
    return [p for p in range(2, n + 1)
            if n % p == 0 and all(p % d for d in range(2, p))]


SYLOW_CASES = [(name, p) for name in SYLOW_GROUPS
               for p in _primes(len(_sylow_group(name)))]


@pytest.mark.parametrize("name,p", SYLOW_CASES,
                         ids=[f"{n}:p={p}" for n, p in SYLOW_CASES])
def test_sylow_matches_normalizer_growth(name, p):
    G = _sylow_group(name)
    P = sylow_subgroup(G, p)
    assert P.elements == ref_sylow_subgroup(G, p).elements
    assert P.order == permgroup._p_part(G.order, p)


def test_sylow_of_group_without_p():
    assert sylow_subgroup(_sylow_group("S4"), 5).order == 1


@pytest.mark.parametrize("dname", ["product-24", "product-48"])
def test_local_group_p_core_matches_reference_sylow(dname, monkeypatch):
    """On every N_L(P) of the localities of the descriptor's products."""
    ctx = Instance(load_descriptor(dname))
    localities = {id(L): L for L in (ctx.product(name)["L"]
                                     for name in ctx.d["fusion_products"])}
    groups = []
    for L in localities.values():
        for d in sorted(L.delta):
            res = local_group(L, L.ids_of(d))
            if res is not None:
                groups.append((res[0], L.p))
    assert groups
    mine = [(p_core(H, p).elements, is_characteristic_p(H, p))
            for H, p in groups]
    monkeypatch.setattr(permgroup, "sylow_subgroup", ref_sylow_subgroup)
    assert mine == [(p_core(H, p).elements, is_characteristic_p(H, p))
                    for H, p in groups]


def test_center_of_d8():
    d8 = FiniteGroup(4, [from_cycles(4, (1, 2, 3, 4)),
                         from_cycles(4, (1, 3))])
    z = center(d8.full_subgroup())
    assert z.order == 2
    assert from_cycles(4, (1, 3), (2, 4)) in z.eset


def test_normal_subgroups_s4(s4):
    orders = sorted(N.order for N in normal_subgroups(s4))
    assert orders == [1, 4, 12, 24]


@pytest.mark.parametrize("gens,orders", [
    ([(1, 2), (1, 2, 3, 4, 5, 6)], [1, 360, 720]),  # S6
    ([(1, 2, 3), (2, 3, 4, 5, 6)], [1, 360]),  # A6
], ids=["S6", "A6"])
def test_normal_subgroups_past_the_lattice(gens, orders):
    """Groups whose whole lattice takes seconds to list (A6: 501
    subgroups): the normal subgroups come from the class closures, and
    each is normal, the last being G itself."""
    G = FiniteGroup(6, [from_cycles(6, c) for c in gens])
    normal = normal_subgroups(G)
    assert [N.order for N in normal] == orders
    assert normal[-1].eset == G.eset
    assert all(conjugate(x, g) in N.eset for N in normal
               for g in G.generators for x in N.elements)


def test_characteristic_p(s4):
    assert is_characteristic_p(s4, 2)
    # adjoin a central order-3 factor: C_G(O_2) now contains it
    g = FiniteGroup(7, [from_cycles(7, (1, 2, 3, 4)), from_cycles(7, (1, 2)),
                        from_cycles(7, (5, 6, 7))])
    assert len(g) == 72
    assert not is_characteristic_p(g, 2)


def test_is_prime_matches_full_trial_division(s4):
    for n in range(-2, 400):
        assert is_prime(n) == (n >= 2 and all(n % d for d in range(2, n))), n
    assert is_prime(1000000007)
    assert not is_prime(1000003 * 1000033)
    with pytest.raises(GroupError, match="4 is not prime"):
        sylow_subgroup(s4, 4)


def test_is_prime_matches_a_sieve_below_10_5():
    n = 100_000
    sieve = [False, False] + [True] * (n - 2)
    for d in range(2, 317):
        if sieve[d]:
            sieve[d * d::d] = [False] * len(range(d * d, n, d))
    assert [is_prime(k) for k in range(n)] == sieve


@pytest.mark.parametrize("n", [561, 1105, 41041, 2047, 3215031751,
                               1000003 * 1000033, 10000019 * 10000079,
                               100000007 * 100000037])
def test_is_prime_rejects_pseudoprimes_and_composites_without_small_factors(n):
    start = time.perf_counter()
    assert not is_prime(n)
    assert time.perf_counter() - start < 0.1


def test_is_prime_refuses_p_beyond_its_exact_range():
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 31 - 1)
    with pytest.raises(GroupError, match="too large"):
        is_prime(permgroup._MR_BOUND)


def test_is_p_group(s4, klein, s4_sylow):
    assert is_p_group(klein, 2)
    assert is_p_group(s4_sylow, 2)
    assert not is_p_group(s4.full_subgroup(), 2)


def test_generated_subgroup_rejects_outsiders(s4):
    with pytest.raises(GroupError):
        generated_subgroup(s4, [from_cycles(5, (4, 5))])


def test_cayley_group_preserves_structure():
    elems = list(range(6))
    mul = lambda a, b: (a + b) % 6
    G, to_perm = cayley_group(elems, mul)
    assert len(G) == 6
    assert perm_order(to_perm[1]) == 6


def test_subgroup_equality_by_elements(s4, klein):
    other = Subgroup(s4, list(klein.elements))
    assert other == klein
    assert other <= s4.full_subgroup()
