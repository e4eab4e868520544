"""Fusion systems checked against conjugation oracles built directly
from the ambient groups."""

import pytest

from locfusion import fusion as fu
from locfusion.fusion import (FusionError, MorphismCapExceeded, close,
                              fusion_of_group, fusion_of_locality,
                              fusion_of_partial_subgroup,
                              is_centric, is_centric_radical,
                              is_normal_subsystem, is_saturated,
                              is_strongly_closed, is_subcentric,
                              is_subnormal_subsystem,
                              normalizer_system, op_core,
                              subcentric_subgroups, subgroup_lattice)
from locfusion.instances import (build_locality, load_descriptor,
                                 resolve_ids, named_subgroup)
from locfusion.locality import (locality_from_descriptor,
                                locality_to_descriptor)
from locfusion.permgroup import (FiniteGroup, conjugate, generated_subgroup,
                                 sylow_subgroup)

from bundled import bundled_groups, net_triples
from cycles import from_cycles
from graph_oracle import from_graph, graphs


@pytest.fixture(scope="module")
def F(s4, s4_sylow):
    return fusion_of_group(s4, s4_sylow, p=2)


@pytest.fixture(scope="module")
def E(s4, s4_sylow, klein, a4_elements):
    """F_V(A4) for V the Klein four-group, on the positions of S."""
    return fusion_of_group(s4, s4_sylow, acting=a4_elements, p=2,
                           t=s4.sindex(s4_sylow).mask(klein.eset))


def _oracle_homs(G, S, P):
    """Conjugation graphs out of P landing in S, directly from G."""
    out = set()
    for g in G:
        graph = tuple(sorted((x, conjugate(x, g)) for x in P.eset))
        if all(y in S.eset for _, y in graph):
            out.add(graph)
    return out


def test_fusion_of_group_matches_oracle(s4, s4_sylow, F):
    by_src = {}
    for m in graphs(F):
        by_src.setdefault(m.src, set()).add(m.pairs)
    for P in subgroup_lattice(s4_sylow):
        assert by_src[P.eset] == _oracle_homs(s4.elements, s4_sylow, P)


def test_fmap_rejects_non_homomorphism(klein):
    """The graph constructor is where the homomorphism check runs."""
    a = from_cycles(4, (1, 2), (3, 4))
    b = from_cycles(4, (1, 3), (2, 4))
    c = from_cycles(4, (1, 4), (2, 3))
    e = tuple(range(4))
    # moves the identity: cannot be a homomorphism
    with pytest.raises(FusionError, match="not a homomorphism"):
        from_graph(klein, [(e, a), (a, e), (b, b), (c, c)])
    with pytest.raises(FusionError, match="not injective"):
        from_graph(klein, [(e, e), (a, b), (b, b)])


def test_closure_of_group_conjugations_equals_group_fusion(s4, s4_sylow, F):
    gens = [from_graph(s4_sylow, [(x, conjugate(x, g)) for x in P.eset])
            for P in subgroup_lattice(s4_sylow) for g in s4
            if all(conjugate(x, g) in s4_sylow.eset for x in P.eset)]
    assert close(s4_sylow, 2, gens) == F


def test_fusion_of_locality_equals_group_fusion(loc_a, F):
    assert fusion_of_locality(loc_a) == F


def test_fusion_of_partial_subgroup_alternating(loc_b):
    d = load_descriptor("instance-b")
    N = resolve_ids(loc_b, named_subgroup(d, loc_b.realization, "alt"))
    EN = fusion_of_partial_subgroup(loc_b, N)
    assert EN.S.order == 4
    assert len(EN.aut(EN.t)) == 3  # inner trivial, order-3 adjoined


def test_saturated_on_bundled_groups():
    for name, G, p in bundled_groups():
        S = sylow_subgroup(G, p)
        assert is_saturated(fusion_of_group(G, S, p=p)), name


def test_classes_partition_the_subgroups():
    """``classes`` is kept on F; each class is the ``conjugates`` of its
    first member, the classes come in the order of their first members,
    and together they hold each subgroup of S once."""
    for name, G, p in bundled_groups():
        F = fusion_of_group(G, sylow_subgroup(G, p), p=p)
        classes = F.classes()
        assert classes is F.classes()
        assert all(cls == F.conjugates(cls[0]) for cls in classes), name
        firsts = [F.lattice.index(cls[0]) for cls in classes]
        assert firsts == sorted(firsts), name
        members = [m for cls in classes for m in cls]
        assert len(members) == len(set(members)) == len(F.lattice)
        assert set(members) == set(F.lattice), name
        assert len(classes) < len(F.lattice), name


def test_close_on_a_base_keeps_its_checks(s4, s4_sylow, klein, F):
    """Closing onto a closed base: the morphism cap, a generator on the
    positions of another group, and a base over another subgroup are all
    refused; a graph outside S or not a homomorphism is refused by the
    graph constructor before it can become a generator."""
    base = close(s4_sylow, 2, [])
    extra = next(m for m in sorted(F.maps) if m not in base.maps)
    assert close(s4_sylow, 2, [extra], base=base) == \
        close(s4_sylow, 2, [extra])
    with pytest.raises(MorphismCapExceeded):
        close(s4_sylow, 2, [extra], cap=len(base.maps), base=base)
    three = generated_subgroup(s4, [from_cycles(4, (1, 2, 3))])
    on_three = [(x, x) for x in three.elements]
    with pytest.raises(FusionError, match="inside S"):
        from_graph(s4_sylow, on_three)
    with pytest.raises(FusionError, match="inside S"):
        close(s4_sylow, 2, [from_graph(s4.full_subgroup(), on_three)],
              base=base)
    e, a, b, c = klein.elements
    with pytest.raises(FusionError, match="not a homomorphism"):
        from_graph(s4_sylow, [(e, a), (a, e), (b, b), (c, c)])
    with pytest.raises(FusionError, match="another subgroup"):
        close(s4_sylow, 2, [], base=close(s4_sylow, 2, [], t=F.mask_of(klein)))


@pytest.fixture(scope="module")
def Fbad(klein):
    """Two of the three order-2 subgroups fused with no extension data."""
    subs = sorted((P for P in subgroup_lattice(klein) if P.order == 2),
                  key=lambda P: P.elements)
    u1, u2 = subs[0], subs[1]
    e = tuple(range(4))
    a = next(iter(u1.eset - {e}))
    b = next(iter(u2.eset - {e}))
    phi = from_graph(klein, [(e, e), (a, b)])
    return close(klein, 2, [phi])


def test_not_saturated_handmade(Fbad):
    assert not is_saturated(Fbad)


def test_subcentric_refuses_non_saturated(Fbad):
    """O_p is read off the centric radicals only for a saturated system."""
    with pytest.raises(FusionError, match="non-saturated"):
        is_subcentric(Fbad, Fbad.lattice[1])


def test_inner_fusion_saturated(s4_sylow):
    assert is_saturated(close(s4_sylow, 2, []))


def test_strongly_closed(F, s4, klein):
    assert is_strongly_closed(F, F.mask_of(klein))
    u = generated_subgroup(s4, [from_cycles(4, (1, 2))])
    assert not is_strongly_closed(F, F.mask_of(u))


class _Asked:
    """An object that keeps answers, as a system or a locality does, and
    equals only itself."""

    def __init__(self):
        self._verdicts = {}


def test_kept_answers_each_question_once_per_object(F):
    computed = []

    @fu.kept
    def ask(x, *args):
        computed.append((x, args))
        return args[0] if args else None

    a, b = _Asked(), _Asked()
    # one computation per (object, args)
    assert ask(a, 1) == ask(a, 1) == 1 and ask(a, 2) == 2
    assert computed == [(a, (1,)), (a, (2,))]
    # no answer shared between two objects
    assert ask(b, 1) == 1 and computed[-1] == (b, (1,))
    # an argument equal by content hits the same entry
    copy = fu.FusionSystem(F.index, F.t, F.p, set(F.maps))
    assert copy is not F and copy == F
    assert ask(a, F) is F and ask(a, copy) is F
    assert computed.count((a, (F,))) == 1 and len(computed) == 4
    # a kept None or False is not computed again
    assert ask(a) is None and ask(a) is None
    assert ask(a, False) is False and ask(a, False) is False
    assert len(computed) == 6
    # each object holds its own answers
    assert len(a._verdicts) == 5 and len(b._verdicts) == 1


def _counting(monkeypatch, *questions):
    """The number of computations behind each ``kept`` question."""
    counts = dict.fromkeys(questions, 0)
    for q in questions:
        def counted(*args, _q=q, _fn=q.__wrapped__):
            counts[_q] += 1
            return _fn(*args)
        monkeypatch.setattr(q, "__wrapped__", counted)
    return counts


def _fresh_s4_system():
    """F_S(S4) at p = 2 on a group of its own, so on an index of S that
    nothing else has asked a question on."""
    G = FiniteGroup(4, [from_cycles(4, (1, 2, 3, 4)),
                        from_cycles(4, (1, 2))])
    return fusion_of_group(G, sylow_subgroup(G, 2), p=2)


def test_equal_systems_on_one_index_share_their_answers(monkeypatch):
    counts = _counting(monkeypatch, is_saturated, fu.normal_subsystems)
    a = _fresh_s4_system()
    b = fu.FusionSystem(a.index, a.t, a.p, set(a.maps))
    assert b is not a and b == a
    assert is_saturated(a) and is_saturated(b)
    assert counts[is_saturated] == 1
    assert fu.normal_subsystems(b) is fu.normal_subsystems(a)
    assert counts[fu.normal_subsystems] == 1


def test_a_smaller_cap_keeps_its_own_answers():
    """The cap takes no part in equality, but a kept computation can
    exceed a smaller cap, so a twin built under one still raises after
    the default-cap twin has answered."""
    a = _fresh_s4_system()
    found = fu.normal_subsystems(a)
    small = fu.FusionSystem(a.index, a.t, a.p, a.maps, morphism_cap=1)
    assert small == a
    with pytest.raises(MorphismCapExceeded):
        fu.normal_subsystems(small)
    assert fu.normal_subsystems(
        fu.FusionSystem(a.index, a.t, a.p, a.maps)) is found


def test_an_abstract_copy_keeps_its_answers_on_its_own_index(monkeypatch):
    """An abstract copy of L realizes S by its own Cayley group: F_S of
    the copy has L's maps on the positions of another S, so it shares
    nothing with F_S(L), and its normal subsystems live on its own S."""
    L = build_locality(load_descriptor("instance-b"))
    A = locality_from_descriptor(locality_to_descriptor(L))
    FL, FA = fusion_of_locality(L), fusion_of_locality(A)
    assert FA.index is not FL.index
    assert (FA.t, FA.p, FA.maps) == (FL.t, FL.p, FL.maps)
    counts = _counting(monkeypatch, is_saturated, fu.normal_subsystems)
    assert is_saturated(FA) == is_saturated(FL)
    assert counts[is_saturated] == 2
    want, got = fu.normal_subsystems(FL), fu.normal_subsystems(FA)
    assert counts[fu.normal_subsystems] == 2
    assert [(E.t, E.maps) for E in got] == [(E.t, E.maps) for E in want]
    assert all(E.index is FA.index for E in got)


def test_normalizer_system_of_normal_subgroup_is_whole(F, klein):
    assert normalizer_system(F, F.mask_of(klein)) == F


def test_normalizer_system_of_sylow(s4, s4_sylow, F):
    """For T = S the morphisms are those extending to S-normalizing maps;
    the result is the fusion of N_G(S)."""
    NS = tuple(g for g in s4
               if all(conjugate(x, g) in s4_sylow.eset for x in s4_sylow))
    oracle = fusion_of_group(s4, s4_sylow, acting=NS, p=2)
    assert normalizer_system(F, F.t) == oracle


def test_centric_and_radical(F, s4_sylow, klein):
    assert is_centric(F, F.mask_of(klein))
    crs = {P.eset for P in fu.centric_radicals(F)}
    assert crs == {klein.eset, s4_sylow.eset}


def test_subcentric_all_of_lattice(F):
    assert len(subcentric_subgroups(F)) == len(F.subgroups)


def test_op_core(F, klein):
    assert op_core(F) == F.mask_of(klein)


def test_normal_subsystem_true_cases(F, E, s4_sylow, klein):
    assert is_normal_subsystem(F, E)
    assert is_normal_subsystem(F, close(s4_sylow, 2, [], t=F.mask_of(klein)))


def test_normal_subsystem_false_case(F, s4, s4_sylow):
    u = generated_subgroup(s4, [from_cycles(4, (1, 2), (3, 4))])
    assert not is_normal_subsystem(F, close(s4_sylow, 2, [], t=F.mask_of(u)))


def test_normal_implies_strongly_closed(F, E):
    assert is_strongly_closed(F, E.t)


def test_subnormal_chain_depth_two(F, s4, s4_sylow):
    u = generated_subgroup(s4, [from_cycles(4, (1, 2), (3, 4))])
    Eu = close(s4_sylow, 2, [], t=F.mask_of(u))
    verdict, chain = is_subnormal_subsystem(F, Eu)
    assert verdict is True
    assert [c.S.order for c in chain] == [2, 4, 8]


def test_subnormal_rejects_non_subsystem(F, s5, s5_sylow):
    other = fusion_of_group(s5, s5_sylow, p=2)
    verdict, chain = is_subnormal_subsystem(F, other)
    assert verdict is False


def test_partial_subgroup_with_s_cap_h_not_a_subgroup_raises(loc_a):
    # S∩H = {1, a, b} for two distinct involutions a, b of S: not closed
    e = loc_a.identity
    inv = [s for s in loc_a.s_ids if s != e and loc_a.rows[s][s] == e]
    H = {e, inv[0], inv[1]}
    with pytest.raises(FusionError, match="S∩H is not a subgroup"):
        fusion_of_partial_subgroup(loc_a, H)
    assert fusion_of_partial_subgroup(loc_a, {e, inv[0]}).S.order == 2


def test_net_identity_on_bundled_triples():
    """N over the strongly closed subgroup inside the fusion system of a
    partial subgroup equals the fusion system of its normalizer."""
    from locfusion.locality import normalizer_carrier
    for name, L, H, T_labels in net_triples():
        EH = fusion_of_partial_subgroup(L, H)
        T = EH.subgroup(frozenset(T_labels))
        assert is_strongly_closed(EH, EH.mask_of(T)), name
        lhs = normalizer_system(EH, EH.mask_of(T))
        t_ids = frozenset(L.ids_of_labels(T_labels))
        NH = frozenset(normalizer_carrier(L, t_ids)) & H
        rhs = fusion_of_partial_subgroup(L, NH)
        assert lhs == rhs, name


def test_export_deterministic(F):
    import json
    a = json.dumps(F.to_json(), sort_keys=True)
    b = json.dumps(F.to_json(), sort_keys=True)
    assert a == b
