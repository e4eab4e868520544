"""The S-indexed kernel against the element-wise code it replaced.

The ``ref_*`` functions are the element-wise implementations of the
S-lattice, of F_S(G) and of the Delta-closure check, with conjugation
computed as g^-1 * x * g from two compositions.  They are kept here only
as oracles: the library computes all three through ``SIndex``.
"""

import functools

import pytest

from locfusion import instances as inst
from locfusion.fusion import (FMap, fusion_of_group, inner_maps,
                              is_receptive)
from locfusion.locality import LocalityError, _check_delta_closures
from locfusion.permgroup import (FiniteGroup, SIndex, Subgroup, _closure,
                                 all_subgroups, compose, from_cycles,
                                 generated_subgroup, inverse, sylow_subgroup)


def ref_conjugate(x, g):
    return compose(compose(inverse(g), x), g)


def ref_all_subgroups(G, within=None):
    """Pairwise join-closure of the cyclic subgroups, on element sets."""
    ambient = within.elements if within is not None else G.elements
    seeds = {frozenset((G.identity,)): ()}
    for x in ambient:
        cyc, y = set(), x
        while y not in cyc:
            cyc.add(y)
            y = compose(y, x)
        seeds.setdefault(frozenset(cyc), (x,))
    subs = dict(seeds)
    worklist = list(seeds.items())
    while worklist:
        key_a, gens_a = worklist.pop()
        for key_b, gens_b in list(subs.items()):
            if key_a <= key_b or key_b <= key_a:
                continue
            gens = tuple(sorted(set(gens_a + gens_b)))
            join = frozenset(_closure(gens, G.degree, len(ambient)))
            if join not in subs:
                subs[join] = gens
                worklist.append((join, gens))
    return sorted((Subgroup(G, s, check=False) for s in subs),
                  key=lambda H: (H.order, H.elements))


def ref_fusion_maps(G, S, acting):
    maps = set()
    for P in ref_all_subgroups(G, within=S):
        for g in acting:
            img = {ref_conjugate(x, g) for x in P.eset}
            if img <= S.eset:
                maps.add(FMap((x, ref_conjugate(x, g)) for x in P.eset))
    return maps


def ref_normalizer_in_s(S, P):
    return frozenset(s for s in S
                     if all(ref_conjugate(x, s) in P.eset for x in P.eset))


def ref_aut_s(S, P):
    return {FMap((x, ref_conjugate(x, s)) for x in P.eset)
            for s in ref_normalizer_in_s(S, P)}


def ref_is_receptive(F, P):
    aut_s_p = ref_aut_s(F.S, P)
    for Q in F.conjugates(P):
        for phi in F.isos_from(Q):
            if phi.img != P.eset:
                continue
            nphi = set()
            for g in ref_normalizer_in_s(F.S, Q):
                c_g = FMap((x, ref_conjugate(x, g)) for x in Q.eset)
                if phi.inv().then(c_g).then(phi) in aut_s_p:
                    nphi.add(g)
            if not any(psi.image_of(Q.eset) == P.eset
                       and all(psi.d[x] == phi.d[x] for x in Q.eset)
                       for psi in F.by_src.get(frozenset(nphi), ())):
                return False
    return True


@functools.lru_cache(maxsize=None)
def _ref_lattice(G, S):
    return ref_all_subgroups(G, within=S)


def ref_check_delta_closures(G, S, dsets):
    subs = _ref_lattice(G, S)
    by_set = {P.eset: P for P in subs}
    for d in dsets:
        if d not in by_set:
            raise LocalityError("delta member is not a subgroup of S")
        for Q in subs:
            if d < Q.eset and Q.eset not in dsets:
                raise LocalityError(
                    f"delta is not overgroup-closed: missing overgroup of order {Q.order}")
        for g in G.elements:
            img = frozenset(ref_conjugate(x, g) for x in d)
            if img <= S.eset and img not in dsets:
                raise LocalityError(
                    "delta is not closed under conjugation maps into S")


# -- groups -------------------------------------------------------------------

def _s4():
    return FiniteGroup(4, [from_cycles(4, (1, 2, 3, 4)), from_cycles(4, (1, 2))])


def _s3xs3():
    return FiniteGroup(6, [from_cycles(6, (1, 2, 3)), from_cycles(6, (1, 2)),
                           from_cycles(6, (4, 5, 6)), from_cycles(6, (4, 5))])


def _a5():
    return FiniteGroup(5, [from_cycles(5, (1, 2, 3, 4, 5)),
                           from_cycles(5, (1, 2, 3))])


EXTRA = [("S4", _s4, 2), ("S4", _s4, 3), ("S3xS3", _s3xs3, 2),
         ("S3xS3", _s3xs3, 3), ("A5", _a5, 2), ("A5", _a5, 3), ("A5", _a5, 5)]


def _extra_cases():
    for name, make, p in EXTRA:
        G = make()
        yield f"{name}:p={p}", G, sylow_subgroup(G, p)


def _bundled_cases():
    for name in inst.BUNDLED:
        d = inst.load_descriptor(name)
        G = inst.group_of(d)
        yield name, G, inst.sylow_of(d, G)


def _cases():
    return list(_bundled_cases()) + list(_extra_cases())


CASES = _cases()
IDS = [c[0] for c in CASES]


def _bundled_fusion_constructions():
    """(label, G, over, acting) for every fusion_of_group call that
    ``product_setup`` makes on the bundled descriptors, plus F_S(G)."""
    out = []
    for name in inst.BUNDLED:
        d = inst.load_descriptor(name)
        G = inst.group_of(d)
        S = inst.sylow_of(d, G)
        out.append((f"{name}:F", G, S, G.elements))

        def gen(rows):
            return generated_subgroup(G, [inst._perm(x, G.degree)
                                          for x in rows])
        for pname, spec in sorted(d.get("fusion_products", {}).items()):
            out.append((f"{name}:{pname}:E", G, gen(spec["E"]["over"]),
                        gen(spec["E"]["acting"]).elements))
            o = spec["oracle"]
            over = S if o["over"] == "sylow" else gen(o["over"])
            acting = (G.elements if o["acting"] == "all"
                      else gen(o["acting"]).elements)
            out.append((f"{name}:{pname}:oracle", G, over, acting))
    return out


FUSION = _bundled_fusion_constructions()


# -- tests --------------------------------------------------------------------

@pytest.mark.parametrize("label,G,S", CASES, ids=IDS)
def test_action_agrees_with_conjugate(label, G, S):
    idx = SIndex(S)
    for g in G.elements:
        images, dom = idx.action(g)
        for i, s in enumerate(S.elements):
            expected = idx.pos.get(ref_conjugate(s, g), -1)
            assert images[i] == expected
            assert bool(dom >> i & 1) == (expected >= 0)


@pytest.mark.parametrize("label,G,S", CASES, ids=IDS)
def test_lattice_matches_element_wise(label, G, S):
    mine = [P.elements for P in all_subgroups(G, within=S)]
    assert mine == [P.elements for P in ref_all_subgroups(G, within=S)]


@pytest.mark.parametrize("make", [_s4, _s3xs3, _a5],
                         ids=["S4", "S3xS3", "A5"])
def test_whole_group_lattice_matches_element_wise(make):
    G = make()
    assert [P.elements for P in all_subgroups(G)] == \
        [P.elements for P in ref_all_subgroups(G)]


@pytest.mark.parametrize("label,G,S", CASES, ids=IDS)
def test_fusion_of_group_matches_element_wise(label, G, S):
    if S.order == 1:
        pytest.skip("no fusion over the trivial group")
    assert fusion_of_group(G, S).maps == ref_fusion_maps(G, S, G.elements)
    assert inner_maps(S) == ref_fusion_maps(G, S, S.elements)


@pytest.mark.parametrize("label,G,S", CASES, ids=IDS)
def test_scans_inside_s_match_element_wise(label, G, S):
    """N_S(P), Aut_S(P) and receptivity on every subgroup of S."""
    if S.order == 1:
        pytest.skip("no fusion over the trivial group")
    F = fusion_of_group(G, S)
    for P in F.subgroups:
        assert F.normalizer_in_s(P) == ref_normalizer_in_s(S, P)
        assert F.aut_s(P) == ref_aut_s(S, P)
        assert is_receptive(F, P) == ref_is_receptive(F, P)


def test_bundled_fusion_constructions_cover_products():
    labels = [f[0] for f in FUSION]
    assert len(labels) == 14 and len(set(labels)) == 14


@pytest.mark.parametrize("label,G,over,acting", FUSION,
                         ids=[f[0] for f in FUSION])
def test_bundled_fusion_constructions_match(label, G, over, acting):
    F = fusion_of_group(G, over, acting=acting)
    assert F.maps == ref_fusion_maps(G, over, acting)


def check_delta_closures(G, S, dsets):
    """The library check on masks, with every element of G acting."""
    six = SIndex(S)
    bad = _check_delta_closures(six.lattice(),
                                {six.mask(d) for d in dsets},
                                [six.action(g) for g in G.elements])
    if bad is not None:
        raise LocalityError(bad)


def _outcome(check, G, S, dsets):
    try:
        check(G, S, dsets)
    except LocalityError as e:
        return str(e)
    return None


@pytest.mark.parametrize("label,G,S", CASES, ids=IDS)
def test_delta_closure_check_matches_element_wise(label, G, S):
    """Up-closures of each subgroup (closed or not under fusion), and
    two-member families that are not overgroup-closed."""
    subs = _ref_lattice(G, S)
    families = []
    for P in subs:
        families.append({Q.eset for Q in subs if P.eset <= Q.eset})
        families.append({P.eset, S.eset})
    families.append({S.eset, frozenset(S.elements[:2])})  # not a subgroup
    outcomes = set()
    for dsets in families:
        got = _outcome(check_delta_closures, G, S, dsets)
        assert got == _outcome(ref_check_delta_closures, G, S, dsets)
        outcomes.add(got)
    assert None in outcomes
