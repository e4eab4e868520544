"""Group-core checks against independent brute-force oracles."""

import itertools

import pytest

from locfusion.permgroup import (FiniteGroup, GroupError, SizeCapExceeded,
                                 Subgroup, all_subgroups, cayley_group,
                                 center, centralizer, compose, conjugate,
                                 from_cycles, generated_subgroup, identity_perm,
                                 inverse, is_characteristic_p, is_p_group,
                                 normal_subgroups, normalizer, p_core,
                                 perm_order, sylow_subgroup)


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
    assert len(all_subgroups(s4)) == 30


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


def test_center_of_d8():
    d8 = FiniteGroup(4, [from_cycles(4, (1, 2, 3, 4)),
                         from_cycles(4, (1, 3))])
    z = center(d8.full_subgroup())
    assert z.order == 2
    assert from_cycles(4, (1, 3), (2, 4)) in z.eset


def test_normal_subgroups_s4(s4):
    orders = sorted(N.order for N in normal_subgroups(s4))
    assert orders == [1, 4, 12, 24]


def test_characteristic_p(s4):
    assert is_characteristic_p(s4, 2)
    # adjoin a central order-3 factor: C_G(O_2) now contains it
    g = FiniteGroup(7, [from_cycles(7, (1, 2, 3, 4)), from_cycles(7, (1, 2)),
                        from_cycles(7, (5, 6, 7))])
    assert len(g) == 72
    assert not is_characteristic_p(g, 2)


def test_is_p_group(s4, klein, s4_sylow):
    assert is_p_group(klein, 2)
    assert is_p_group(s4_sylow, 2)
    assert not is_p_group(s4.full_subgroup(), 2)


def test_descriptor_roundtrip(s4):
    d = s4.to_descriptor()
    assert d["degree"] == 4
    back = FiniteGroup.from_descriptor(d)
    assert back.eset == s4.eset


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
