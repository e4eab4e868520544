"""The S-indexed kernel against the element-wise code it replaced.

The ``ref_*`` functions are the element-wise implementations of the
S-lattice and of F_S(G) (both in ``graph_oracle``), of the Delta-closure
check, of normalizer systems and of normality in a fusion system
(``ref_generated``, the subgroup generated by a set, is in
``answer_oracles``), with conjugation computed as g^-1 * x * g from two
compositions, and the full-scan O_p and the unshortcut subcentric test
built on them.  They are kept here only as oracles: the library computes
all of these through ``SIndex``, and searches O_p only above a subgroup
it is known to contain.

``ref_is_centric_radical`` and ``ref_a_fe`` are the automorphism-group
code that the permutation group of ``fusion.aut_group`` replaced: a
Cayley group of Aut_F(P) and a second one on the cosets of Inn(P), and a
closure of graph compositions.

Every oracle works on element graphs (``graph_oracle``), the morphism
form the library held before it moved to the positions of S; ``close``
is checked against the graph closure that composes every pair.
"""

import functools
import random

import pytest

from locfusion import instances as inst
from locfusion.fusion import (FusionSystem, centric_radicals, close,
                              fully_normalized_conjugate, fusion_of_group,
                              fusion_of_locality, inner_maps, is_centric,
                              is_centric_radical, is_receptive,
                              is_strongly_closed,
                              is_subcentric, normalizer_system, op_core,
                              subcentric_subgroups, subgroup_lattice)
from locfusion.locality import LocalityError, _check_delta_closures
from locfusion.permgroup import (FiniteGroup, GroupError, SIndex, _closure,
                                 all_subgroups, bit_positions, cayley_group,
                                 center, compose, generated_subgroup, inverse,
                                 p_core, sylow_subgroup)
from locfusion.products import _tr_subgroup, a_fe

from answer_oracles import (_normality_fault, _op_core_over, coset_span,
                            is_normal_subgroup_in, join_closure_lattice,
                            normalizer_by_sources, op_core_by_scan,
                            ref_generated)
from cycles import from_cycles
from graph_oracle import (conj_graph, from_graph, graph_of, graphs,
                          ref_all_subgroups, ref_close, ref_conjugate,
                          ref_fusion_maps)


_graphs = functools.lru_cache(maxsize=None)(graphs)


@functools.lru_cache(maxsize=None)
def _graphs_by_src(F):
    """The graphs of F's maps, grouped by source."""
    out = {}
    for m in _graphs(F):
        out.setdefault(m.src, []).append(m)
    return out


def ref_normalizer_in_s(S, P):
    return frozenset(s for s in S
                     if all(ref_conjugate(x, s) in P.eset for x in P.eset))


def ref_aut_s(S, P):
    return {conj_graph(P.eset, s) for s in ref_normalizer_in_s(S, P)}


def ref_is_receptive(F, P):
    aut_s_p = ref_aut_s(F.S, P)
    by_src = _graphs_by_src(F)
    for q in F.conjugates(F.mask_of(P)):
        Q = F.index.by_mask[q]
        for phi in by_src[Q.eset]:
            if phi.img != P.eset:
                continue
            nphi = set()
            for g in ref_normalizer_in_s(F.S, Q):
                c_g = conj_graph(Q.eset, g)
                if phi.inv().then(c_g).then(phi) in aut_s_p:
                    nphi.add(g)
            if not any(psi.image_of(Q.eset) == P.eset
                       and all(psi.d[x] == phi.d[x] for x in Q.eset)
                       for psi in by_src.get(frozenset(nphi), ())):
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


def ref_normalizer_system(F, Q):
    """N_F(Q): every Q-preserving map restricted to every subgroup of
    N_S(Q) inside the points it keeps in N_S(Q), on element sets."""
    NS = ref_normalizer_in_s(F.S, Q)
    lattice = [P for P in subgroup_lattice(F.S) if P.eset <= NS]
    out = set()
    for psi in _graphs(F):
        if not (Q.eset <= psi.src and psi.image_of(Q.eset) == Q.eset):
            continue
        M = frozenset(x for x in psi.src & NS if psi.d[x] in NS)
        out |= {psi.restrict(P.eset) for P in lattice if P.eset <= M}
    return FusionSystem(F.index, F.index.mask(NS), F.p,
                        {from_graph(F.index.S, m.pairs) for m in out},
                        F.morphism_cap)


def ref_is_strongly_closed(F, Q):
    return all(m.d[x] in Q.eset for m in _graphs(F) for x in Q.eset & m.src)


def ref_is_normal_subgroup_in(F, Q):
    """Strongly closed, and each map extends over <src, Q> to a map of F
    sending Q onto Q, tested point by point."""
    if not ref_is_strongly_closed(F, Q):
        return False
    by_src = _graphs_by_src(F)
    for phi in _graphs(F):
        pq = ref_generated(F, phi.src | Q.eset)
        if not any(psi.image_of(Q.eset) == Q.eset
                   and all(psi.d[x] == phi.d[x] for x in phi.src)
                   for psi in by_src.get(pq, ())):
            return False
    return True


def ref_op_core(F):
    """O_p(F) from a normality test on every subgroup of S."""
    normals = [Q for Q in F.subgroups if ref_is_normal_subgroup_in(F, Q)]
    best = max(normals, key=lambda Q: Q.order)
    assert all(Q.eset <= best.eset for Q in normals)
    return best


def ref_is_subcentric(F, P):
    """O_p(N_F(Q)) centric for a fully normalized conjugate Q of P, with
    N_F(Q) and its O_p built for every P, centric or not."""
    Q = F.index.by_mask[fully_normalized_conjugate(F, F.mask_of(P))]
    R = ref_op_core(ref_normalizer_system(F, Q))
    return is_centric(F, F.mask_of(R))


def ref_is_centric_radical(F, P):
    """Centric, and O_p of Aut_F(P)/Inn(P) trivial, with both groups
    realized by their regular actions."""
    if not is_centric(F, F.mask_of(P)):
        return False
    auts = [m for m in _graphs_by_src(F)[P.eset] if m.img == P.eset]
    GA, to_perm = cayley_group(sorted(auts), lambda a, b: a.then(b))
    inn = {to_perm[conj_graph(P.eset, x)] for x in P.eset}
    cosets = {}
    for g in GA.elements:
        cs = frozenset(compose(n, g) for n in inn)
        cosets.setdefault(cs, min(cs))
    coset_of = {g: k for k in cosets for g in k}
    quotient, _ = cayley_group(
        sorted(cosets),
        lambda a, b: coset_of[compose(cosets[a], cosets[b])])
    return p_core(quotient, F.p).order == 1


def ref_a_fe(F, E, P):
    """The p'-automorphisms of P that centralize P modulo P∩T and
    restrict into E, closed under composition of graphs."""
    pt = P.eset & E.S.eset
    auts = [m for m in _graphs_by_src(F)[P.eset] if m.img == P.eset]
    in_e = _graphs(E)

    def order(phi):
        n, cur = 1, phi
        while not cur.is_identity():
            cur, n = cur.then(phi), n + 1
        return n
    return span({a for a in auts if a.is_identity()} | {
        phi for phi in auts if order(phi) % F.p
        and {compose(inverse(x), phi.d[x]) for x in P.eset} <= pt
        and phi.restrict(frozenset(pt)) in in_e})


def span(graphs):
    """The automorphism graphs closed under composition: the group they
    generate."""
    out = set(graphs)
    frontier = list(out)
    while frontier:
        a = frontier.pop()
        for b in list(out):
            for c in (a.then(b), b.then(a)):
                if c not in out:
                    out.add(c)
                    frontier.append(c)
    return out


# -- groups -------------------------------------------------------------------

def _s4():
    return FiniteGroup(4, [from_cycles(4, (1, 2, 3, 4)), from_cycles(4, (1, 2))])


def _s3xs3():
    return FiniteGroup(6, [from_cycles(6, (1, 2, 3)), from_cycles(6, (1, 2)),
                           from_cycles(6, (4, 5, 6)), from_cycles(6, (4, 5))])


def _a5():
    return FiniteGroup(5, [from_cycles(5, (1, 2, 3, 4, 5)),
                           from_cycles(5, (1, 2, 3))])


def _s5():
    return FiniteGroup(5, [from_cycles(5, (1, 2, 3, 4, 5)),
                           from_cycles(5, (1, 2))])


def _s6():
    return FiniteGroup(6, [from_cycles(6, (1, 2, 3, 4, 5, 6)),
                           from_cycles(6, (1, 2))])


def _s4xs2():
    return FiniteGroup(6, [from_cycles(6, (1, 2, 3, 4)),
                           from_cycles(6, (1, 2)), from_cycles(6, (5, 6))])


def _s7():
    return FiniteGroup(7, [from_cycles(7, (1, 2, 3, 4, 5, 6, 7)),
                           from_cycles(7, (1, 2))])


def _s6xc2():
    return FiniteGroup(8, [from_cycles(8, (1, 2, 3, 4, 5, 6)),
                           from_cycles(8, (1, 2)), from_cycles(8, (7, 8))])


def _s4xs4():
    return FiniteGroup(8, [from_cycles(8, (1, 2, 3, 4)),
                           from_cycles(8, (1, 2)),
                           from_cycles(8, (5, 6, 7, 8)),
                           from_cycles(8, (5, 6))])


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


def _p_of(label):
    """The prime of a case: the one its label names, or its bundled
    descriptor's."""
    name, _, p = label.partition(":p=")
    return int(p) if p else inst.load_descriptor(name.split(":")[0])["p"]


def _bundled_fusion_constructions():
    """(label, G, S, over, acting) for every fusion_of_group call that
    ``product_setup`` makes on the bundled descriptors, plus F_S(G)."""
    out = []
    for name in inst.BUNDLED:
        d = inst.load_descriptor(name)
        G = inst.group_of(d)
        S = inst.sylow_of(d, G)
        out.append((f"{name}:F", G, S, S, G.elements))

        def gen(rows):
            return generated_subgroup(G, inst._perms(rows, G))
        for pname, spec in sorted(d.get("fusion_products", {}).items()):
            out.append((f"{name}:{pname}:E", G, S, gen(spec["E"]["over"]),
                        gen(spec["E"]["acting"]).elements))
            o = spec["oracle"]
            over = S if o["over"] == "sylow" else gen(o["over"])
            acting = (G.elements if o["acting"] == "all"
                      else gen(o["acting"]).elements)
            out.append((f"{name}:{pname}:oracle", G, S, over, acting))
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


ACTION_GROUPS = {"S4": _s4, "S6": _s6, "S7": _s7, "S6xC2": _s6xc2,
                 "product-24": lambda: inst.group_of(
                     inst.load_descriptor("product-24"))}

ACTION_CASES = [f"{name}:{kind}" for name, primes in
                [("S4", (2, 3)), ("S6", (2, 3, 5)), ("S7", (2, 3, 5, 7)),
                 ("S6xC2", (2, 3, 5))]
                for kind in [f"sylow-{p}" for p in primes] + ["trivial"]]
ACTION_CASES += ["S4:klein", "product-24:E-acting-on-S",
                 "product-24:E-acting-on-T", "S7:random-third",
                 "S6xC2:random-third"]


def _action_case(label):
    """(S, elements) of a case: S a Sylow, trivial or Klein subgroup,
    acted on by all of G, by product-24's E.acting (which is not a union
    of right cosets of its Sylow subgroup), or by a seeded random third
    of G."""
    name, kind = label.split(":")
    G = ACTION_GROUPS[name]()
    if kind.startswith("sylow-"):
        return sylow_subgroup(G, int(kind[6:])), G.elements
    if kind == "trivial":
        return G.trivial_subgroup(), G.elements
    if kind == "klein":
        return generated_subgroup(G, [from_cycles(4, (1, 2), (3, 4)),
                                      from_cycles(4, (1, 3), (2, 4))]), \
            G.elements
    if kind == "random-third":
        return sylow_subgroup(G, 2), tuple(
            random.Random(0).sample(G.elements, len(G) // 3))
    spec = inst.load_descriptor(name)["fusion_products"]["i"]["E"]

    def gen(rows):
        return generated_subgroup(G, inst._perms(rows, G))
    over = sylow_subgroup(G, 2) if kind.endswith("S") else gen(spec["over"])
    return over, gen(spec["acting"]).elements


@pytest.mark.parametrize("label", ACTION_CASES)
def test_actions_match_action(label):
    """``SIndex.cosets`` meets each element once, in the right coset of
    the first element of it met, cosets in the order met; the action it
    gives the coset and ``member_images`` gives each member are exactly
    the actions computed directly."""
    S, elements = _action_case(label)
    idx = SIndex(S)
    first = {}
    for k, g in enumerate(elements):
        first.setdefault(g, k)
    met, firsts = [], []
    for images, dom, members in idx.cosets(elements):
        ts = [t for t, _ in members]
        r = members[0][1]
        assert ts[0] == 0 and ts == sorted(set(ts))
        assert (images, dom) == idx.action(r)
        assert first[r] == min(first[g] for _, g in members)
        for (t, g), imgs in zip(members, idx.member_images(images, ts)):
            assert g == compose(r, S.elements[t])
            assert (imgs, dom) == idx.action(g)
        met += [g for _, g in members]
        firsts.append(first[r])
    assert firsts == sorted(firsts)
    assert len(met) == len(set(met)) and set(met) == set(elements)


def test_action_subset_cases_are_not_unions_of_cosets():
    for label in ("product-24:E-acting-on-S", "S7:random-third"):
        S, elements = _action_case(label)
        eset = set(elements)
        assert any(compose(g, s) not in eset for g in elements for s in S)


@pytest.mark.parametrize("label,G,S", CASES, ids=IDS)
def test_lattice_matches_element_wise(label, G, S):
    mine = [P.elements for P in all_subgroups(G, within=S)]
    assert mine == [P.elements for P in ref_all_subgroups(G, within=S)]


@pytest.mark.parametrize("make", [_s4, _s3xs3, _a5],
                         ids=["S4", "S3xS3", "A5"])
def test_whole_group_lattice_matches_element_wise(make):
    """The join-closure oracle, which takes any group, against the
    element-wise lattice on groups that are not p-groups."""
    G = make()
    idx = G.sindex(G.full_subgroup())
    assert [idx.members(m) for m in join_closure_lattice(idx)] == \
        [P.elements for P in ref_all_subgroups(G)]


@pytest.mark.parametrize("make", [_s4, _s3xs3, _a5],
                         ids=["S4", "S3xS3", "A5"])
def test_lattice_of_a_non_p_group_raises(make):
    """The index-p walk is complete only for p-groups, so the lattice
    of any other group is refused, never returned in part."""
    G = make()
    with pytest.raises(GroupError, match="not a prime power"):
        all_subgroups(G)
    with pytest.raises(GroupError, match="not a prime power"):
        G.sindex(G.full_subgroup()).lattice()


S6_CASES = [(f"S6:p={p}", G, sylow_subgroup(G, p))
            for G in [_s6()] for p in (2, 3, 5)]


@pytest.mark.parametrize("label,G,S", CASES + S6_CASES,
                         ids=IDS + [c[0] for c in S6_CASES])
def test_fusion_of_group_matches_element_wise(label, G, S):
    """F_S(G) and the inner maps against the conjugation graphs; then
    ``close`` against the graph closure, from a seeded sample of the
    outer maps and from all of them, onto the inner maps."""
    if S.order == 1:
        pytest.skip("no fusion over the trivial group")
    F = fusion_of_group(G, S, p=_p_of(label))
    ref = ref_fusion_maps(G, S, G.elements)
    inner = ref_fusion_maps(G, S, S.elements)
    assert graphs(F) == ref
    assert {graph_of(S, m) for m in inner_maps(S)} == inner
    outer = sorted(ref - inner)
    for gens in (random.Random(0).sample(outer, min(3, len(outer))), outer):
        got = close(S, F.p, [from_graph(S, m.pairs) for m in gens])
        assert graphs(got) == ref_close(S, gens, inner)
    assert got == F


@pytest.mark.parametrize("label,G,S", CASES, ids=IDS)
def test_scans_inside_s_match_element_wise(label, G, S):
    """N_S(P), Aut_S(P) and receptivity on every subgroup of S."""
    if S.order == 1:
        pytest.skip("no fusion over the trivial group")
    F = fusion_of_group(G, S, p=_p_of(label))
    idx = F.index
    for P in F.subgroups:
        m = idx.mask(P.eset)
        assert frozenset(idx.members(idx.normalizer(m))) == \
            ref_normalizer_in_s(S, P)
        assert idx.aut_s(m).keys() == {
            tuple(idx.pos[a.d[x]] for x in P.elements)
            for a in ref_aut_s(S, P)}
        assert is_receptive(F, m) == ref_is_receptive(F, P)


def test_bundled_fusion_constructions_cover_products():
    labels = [f[0] for f in FUSION]
    assert len(labels) == 14 and len(set(labels)) == 14


@pytest.mark.parametrize("label,G,S,over,acting", FUSION,
                         ids=[f[0] for f in FUSION])
def test_bundled_fusion_constructions_match(label, G, S, over, acting):
    """Each system on the positions of S, over the mask of ``over``."""
    t = G.sindex(S).mask(over.eset)
    F = fusion_of_group(G, S, p=_p_of(label), acting=acting, t=t)
    assert graphs(F) == ref_fusion_maps(G, over, acting)


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


# -- O_p, normality and subcentric subgroups -----------------------------------

SUBCENTRIC_GROUPS = {"S4": (_s4, (2, 3)), "S3xS3": (_s3xs3, (2, 3)),
                     "A5": (_a5, (2, 3, 5)), "S5": (_s5, (2, 3, 5)),
                     "S6": (_s6, (2,))}
SUBCENTRIC_IDS = (["product-24:F_S(L)", "product-48:F_S(L)"]
                  + [f"{name}:p={p}" for name, (_, ps) in
                     SUBCENTRIC_GROUPS.items() for p in ps])


@functools.lru_cache(maxsize=None)
def _subcentric_system(label):
    """F_S(L) of a product suite's locality, or F_S(G) of a named group."""
    name, _, rest = label.partition(":")
    if rest == "F_S(L)":
        return fusion_of_locality(inst.Instance(inst.load_descriptor(name)).L)
    make, _ = SUBCENTRIC_GROUPS[name]
    G = make()
    p = int(rest[2:])
    return fusion_of_group(G, sylow_subgroup(G, p), p=p)


@pytest.mark.parametrize("label", SUBCENTRIC_IDS)
def test_subcentric_search_matches_full_scan(label):
    """For every class, on the normalizer system of its fully normalized
    member: N_F(Q), each subgroup's normality verdict, O_p, and O_p
    searched above Q, against the element-wise full scan; then the
    subcentric verdict and the subcentric list."""
    F = _subcentric_system(label)
    assert F.index.by_mask[op_core(F)] == ref_op_core(F)
    verdicts = {}
    for P in F.subgroups:
        if P.eset in verdicts:
            continue
        q = fully_normalized_conjugate(F, F.mask_of(P))
        Q = F.index.by_mask[q]
        NQ = normalizer_system(F, q)
        assert NQ == ref_normalizer_system(F, Q)
        for R in NQ.subgroups:
            r = NQ.mask_of(R)
            assert is_strongly_closed(NQ, r) == ref_is_strongly_closed(NQ, R)
            assert is_normal_subgroup_in(NQ, r) == \
                ref_is_normal_subgroup_in(NQ, R)
        R = ref_op_core(NQ)
        assert NQ.index.by_mask[op_core(NQ)] == R
        assert NQ.index.by_mask[_op_core_over(NQ, q)] == R
        v = is_centric(F, F.mask_of(R))
        assert is_subcentric(F, F.mask_of(P)) == v == ref_is_subcentric(F, P)
        verdicts.update((F.index.by_mask[c].eset, v)
                        for c in F.conjugates(F.mask_of(P)))
    assert subcentric_subgroups(F) == \
        [P for P in F.subgroups if verdicts[P.eset]]


NORMALIZER_GROUPS = {"S4": (_s4, (2, 3)), "S3xS3": (_s3xs3, (2, 3)),
                     "A5": (_a5, (2, 3, 5)), "S6": (_s6, (2, 3, 5))}
NORMALIZER_IDS = ([f"{name}:F" for name in inst.BUNDLED]
                  + [f"{name}:p={p}" for name, (_, ps) in
                     NORMALIZER_GROUPS.items() for p in ps])


@pytest.mark.parametrize("label", NORMALIZER_IDS)
def test_normalizer_system_matches_build_from_every_source(label):
    """N_F(Q) from its definition equals the build that restricts every
    Q-preserving map whose source holds Q, for every subgroup Q of S, on
    F_S(G) of each bundled descriptor and of the named groups at each
    prime.  A normalizer equal to F is F itself, and each is kept."""
    name, _, rest = label.partition(":")
    if rest == "F":
        ctx = inst.Instance(inst.load_descriptor(name))
        F = fusion_of_group(ctx.G, ctx.S, p=ctx.d["p"])
    else:
        make, _ = NORMALIZER_GROUPS[name]
        G = make()
        p = int(rest[2:])
        F = fusion_of_group(G, sylow_subgroup(G, p), p=p)
    for Q, q in zip(F.subgroups, F.lattice):
        NQ = normalizer_system(F, q)
        assert NQ == normalizer_by_sources(F, Q), Q.order
        assert (NQ is F) == (NQ == F)
        assert normalizer_system(F, q) is NQ
        assert normalizer_system(NQ, q) is NQ


def test_each_normality_clause_fires(s4, s4_sylow, klein):
    """Z(S) is moved out of itself by fusion: strong closure fails.  S is
    strongly closed, but the map fusing the central involution with a
    non-central one has no extension to S: the extension clause fails.
    The Klein four-group O_2(S4) passes both."""
    F = fusion_of_group(s4, s4_sylow, p=2)
    Z = F.subgroup(center(s4_sylow).eset)
    S = F.subgroup(s4_sylow.eset)
    assert _normality_fault(F, F.mask_of(Z)) == "strong_closure"
    assert not ref_is_strongly_closed(F, Z)
    assert ref_is_strongly_closed(F, S)
    assert _normality_fault(F, F.mask_of(S)) == "extension"
    assert not ref_is_normal_subgroup_in(F, S)
    assert _normality_fault(F, F.mask_of(klein)) is None
    assert op_core(F) == F.mask_of(klein)


OP_CORE_GROUPS = {"S6": (_s6, 3), "S6xC2": (_s6xc2, 2), "S4xS4": (_s4xs4, 2)}
OP_CORE_IDS = ([f"{name}:F" for name in inst.BUNDLED]
               + [f"{name}:p={p}" for name, (_, p) in OP_CORE_GROUPS.items()])


@pytest.mark.parametrize("label", OP_CORE_IDS)
def test_op_core_matches_normality_scan(label):
    """O_p read off the centric radicals equals the normality scan: on
    F_S(G), and on N_F(Q) at the fully normalized member Q of every
    class (of a seeded sample of the non-centric classes on S4xS4),
    where the scan starts at Q, which is normal in N_F(Q); and so does
    the subcentric verdict of the class."""
    name, _, rest = label.partition(":")
    if rest == "F":
        F = inst.Instance(inst.load_descriptor(name)).F
    else:
        make, p = OP_CORE_GROUPS[name]
        G = make()
        F = fusion_of_group(G, sylow_subgroup(G, p), p=p)
    assert op_core(F) == F.mask_of(op_core_by_scan(F))
    classes = F.classes()
    if name == "S4xS4":  # N_F(Q) is built only for non-centric classes
        classes = random.Random(0).sample(
            [cls for cls in classes if not is_centric(F, cls[0])], 8)
    for cls in classes:
        q = fully_normalized_conjugate(F, cls[0])
        NQ = normalizer_system(F, q)
        r = _op_core_over(NQ, q)
        assert op_core(NQ) == r
        assert is_subcentric(F, cls[0]) == is_centric(F, r)


# -- Aut_F(P) as a permutation group ------------------------------------------

AUT_GROUPS = {"S4": (_s4, (2, 3)), "S3xS3": (_s3xs3, (2, 3)),
              "A5": (_a5, (2, 3, 5)), "S5": (_s5, (2, 3, 5)),
              "S6": (_s6, (2, 3, 5)), "S4xS2": (_s4xs2, (2, 3)),
              "S4xS4": (_s4xs4, (2,))}
AUT_IDS = ([f"{name}:p={p}" for name, (_, ps) in AUT_GROUPS.items()
            for p in ps]
           + [f"{name}:F_S(L)" for name in inst.BUNDLED])


@functools.lru_cache(maxsize=None)
def _aut_system(label):
    """F_S(G) of a named group at a prime, or F_S(L) of a bundled
    locality."""
    name, _, rest = label.partition(":")
    if rest == "F_S(L)":
        return fusion_of_locality(inst.Instance(inst.load_descriptor(name)).L)
    G = AUT_GROUPS[name][0]()
    p = int(rest[2:])
    return fusion_of_group(G, sylow_subgroup(G, p), p=p)


@pytest.mark.parametrize("label", AUT_IDS)
def test_aut_group_matches_cayley_route(label):
    """On every subgroup P: the centric-radical verdict against the
    Cayley quotient, and the group spanned by the generators of A(P)
    with E = F (the p'-elements of Aut_F(P)) against the graph
    closure."""
    F = _aut_system(label)
    verdicts = []
    for P in F.subgroups:
        v = is_centric_radical(F, F.mask_of(P))
        assert v == ref_is_centric_radical(F, P), P.elements
        verdicts.append(v)
        assert span(graph_of(F.S, m) for m in a_fe(F, F, F.mask_of(P))) == \
            ref_a_fe(F, F, P), P.elements
    assert centric_radicals(F) == \
        [P for P, v in zip(F.subgroups, verdicts) if v]
    assert any(verdicts)


def _product_systems():
    for dname in ("product-24", "product-48"):
        ctx = inst.Instance(inst.load_descriptor(dname))
        for pname in sorted(ctx.d["fusion_products"]):
            st = ctx.product(pname)
            yield f"{dname}:{pname}", st["F"], st["E"], st["T"], st["D"]


PRODUCT_SYSTEMS = list(_product_systems())


@pytest.mark.parametrize("label,F,E,T,D", PRODUCT_SYSTEMS,
                         ids=[p[0] for p in PRODUCT_SYSTEMS])
def test_a_fe_matches_fmap_closure_over_tr(label, F, E, T, D):
    """A(P) for every P <= TR, of E inside F and of D inside N_F(T), as
    the group its generators span in the product formula."""
    tr = frozenset(F.index.members(_tr_subgroup(F, F.mask_of(T), D.t)))
    NFT = normalizer_system(F, F.mask_of(T))
    for ambient, sub in ((F, E), (NFT, D)):
        for P in ambient.subgroups:
            if P.eset <= tr:
                assert span(graph_of(F.S, m) for m in
                            a_fe(ambient, sub, F.mask_of(P))) == \
                    ref_a_fe(ambient, sub, P)


# -- joins in the S-lattice ---------------------------------------------------

def test_sindex_join_is_generated_subgroup(s4):
    """join(a, b) is <a, b> for every pair of subgroup masks of D8,
    against the closure of their elements; and <(13)> joined with
    (12)(34) is all of D8, where the right-coset walk of the oracle
    (``coset_span``) gives only <(13)>·<(12)(34)>."""
    D8 = generated_subgroup(s4, [from_cycles(4, (1, 2, 3, 4)),
                                 from_cycles(4, (1, 3))])
    idx = s4.sindex(D8)
    lattice = idx.lattice()
    assert len(lattice) == 10
    for a in lattice:
        for b in lattice:
            closure = _closure(idx.members(a | b), 4, 8)
            assert set(idx.members(idx.join(a, b))) == closure
    r = idx.mask(generated_subgroup(s4, [from_cycles(4, (1, 3))]))
    x = idx.mask([from_cycles(4, (1, 2), (3, 4))])
    assert idx.join(r, x) == (1 << 8) - 1
    assert coset_span(idx, r, bit_positions(x)).bit_count() == 4
