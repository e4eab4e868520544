"""Product subsystem construction against group oracles and reports."""

import itertools

import pytest

from locfusion import products as pr
from locfusion.fusion import (close, fusion_of_group, fusion_of_locality,
                              inner_maps, is_subcentric, maps_inside)
from locfusion.instances import (Instance, build_locality, load_descriptor,
                                 named_subgroup, product_setup, resolve_ids)
from locfusion.locality import (delta_min_order, is_linking_locality,
                                locality_from_descriptor, locality_from_group,
                                locality_to_descriptor, validate_locality)
from locfusion.partial_subgroups import verify_theorem_nk_subnormal
from locfusion.permgroup import (FiniteGroup, bit_positions,
                                 generated_subgroup, sylow_subgroup)
from locfusion.report import PreconditionError, fold

from answer_oracles import (ed_verdict_by_clause, linking_per_object,
                            locality_route_fault_by_lattice,
                            subnormal_subsystems_by_exhaust)
from bundled import relabelled_copy
from cycles import from_cycles
from graph_oracle import graph_of


@pytest.fixture(scope="module")
def F(s4, s4_sylow):
    return fusion_of_group(s4, s4_sylow, p=2)


@pytest.fixture(scope="module")
def E(s4, s4_sylow, klein, a4_elements):
    """F_V(A4) for V the Klein four-group, on the positions of S."""
    return fusion_of_group(s4, s4_sylow, acting=a4_elements, p=2,
                           t=s4.sindex(s4_sylow).mask(klein.eset))


@pytest.fixture(scope="module")
def setups():
    out = {}
    for dname, pname in (("product-24", "i"), ("product-24", "ii"),
                         ("product-24", "subn"), ("product-48", "iii")):
        out[pname] = product_setup(load_descriptor(dname), pname)
    return out


def test_a_fe_order_three(F, E, klein):
    A = pr.a_fe(F, E, F.mask_of(klein))
    assert len(A) == 3


def test_a_fe_trivial_when_aut_is_p_group(F, E, s4_sylow):
    # Aut of the full Sylow is a 2-group: no nontrivial odd-order parts
    A = pr.a_fe(F, E, F.t)
    assert all(graph_of(F.S, m).is_identity() for m in A)


def test_a_fe_trivial_when_p_cap_t_trivial(F, E, s4):
    u = generated_subgroup(s4, [from_cycles(4, (1, 2))])
    A = pr.a_fe(F, E, F.mask_of(u))
    assert all(graph_of(F.S, m).is_identity() for m in A)


def test_product_ed_instances_match_oracle(setups):
    for name, st in setups.items():
        if name == "subn":
            continue
        ed = pr.product_ED(st["F"], st["E"], st["D"])
        assert ed == st["oracle"], name


def test_product_ed_identity_cases(setups):
    st = setups["i"]
    assert pr.product_ED(st["F"], st["E"], st["D"]) == st["E"]
    st = setups["ii"]
    assert pr.product_ED(st["F"], st["E"], st["D"]) == st["F"]


def test_product_ed_strictly_between(setups):
    st = setups["iii"]
    ed = pr.product_ED(st["F"], st["E"], st["D"])
    assert st["E"].maps < ed.maps
    assert ed != st["F"]


def test_product_ed_requires_normal_d(setups):
    st = setups["subn"]
    with pytest.raises(pr.NormalityRequired):
        pr.product_ED(st["F"], st["E"], st["D"])


def test_product_ed_rejects_non_normal_e(F, s4, s4_sylow):
    u = generated_subgroup(s4, [from_cycles(4, (1, 2), (3, 4))])
    Eu = close(s4_sylow, 2, [], t=F.mask_of(u))
    with pytest.raises(PreconditionError):
        pr.product_ED(F, Eu, Eu)


def test_via_locality_agrees(setups):
    for name, st in setups.items():
        ed_loc = pr.product_ed_via_locality(st["L"], st["N_ids"],
                                            st["K_ids"])
        assert ed_loc == st["oracle"], name
        if name != "subn":
            assert ed_loc == pr.product_ED(st["F"], st["E"], st["D"]), name


def test_via_locality_trivial_k(setups):
    st = setups["i"]
    L = st["L"]
    ed = pr.product_ed_via_locality(L, st["N_ids"],
                                    frozenset({L.identity}))
    # F_T(N): same as the product with D = F_T(T)
    assert ed == st["oracle"]


def test_via_locality_rejects_non_normal_n(setups):
    st = setups["i"]
    L = st["L"]
    with pytest.raises(PreconditionError):
        pr.product_ed_via_locality(L, frozenset({L.identity, 1}),
                                   st["K_ids"])


def test_enumerate_subnormal_subsystems(F, E):
    subs = pr.enumerate_subnormal_subsystems(F)
    key = {(X.S.order, len(X.maps)) for X in subs}
    assert sorted(X.S.order for X in subs) == [1, 2, 2, 2, 4, 4, 8]
    assert (4, len(E.maps)) in key  # the alternating-type subsystem
    assert (8, len(F.maps)) in key  # F itself


@pytest.mark.parametrize("dname", ["group-8", "group-60", "instance-a",
                                   "instance-b", "product-24"])
def test_enumeration_matches_the_exhaust(dname):
    """The subnormal subsystems read off the normal ones are those that
    the chain search by normal closures finds subnormal among every
    closed subsystem (product-48's are compared candidate by candidate
    in ``test_subsystem_conjugation``)."""
    F = Instance(load_descriptor(dname)).F
    assert pr.enumerate_subnormal_subsystems(F) == \
        subnormal_subsystems_by_exhaust(F)


def test_verify_ed_reports(setups):
    subn_systems = pr.enumerate_subnormal_subsystems(setups["i"]["F"])
    for name, st in setups.items():
        ed, route, agreement = pr.product_by_route(
            st["F"], st["E"], st["D"], st["L"], st["N_ids"], st["K_ids"])
        assert route == ("locality" if name == "subn" else "formula_e")
        assert agreement is (None if name == "subn" else True)
        comps = subn_systems if st["enumerate_minimality"] else None
        rep = pr.verify_ed(st["F"], st["E"], st["D"], ed,
                           instance=st["name"], route=route,
                           comparisons=comps)
        assert fold(rep.clauses.values()) is True, (name, rep.clauses)
        if name == "subn":
            assert rep.clauses["D_status"] == "subnormal"
            assert rep.clauses["ED_normal_in_F"] is None
        else:
            assert rep.clauses["D_status"] == "normal"
            assert rep.clauses["ED_normal_in_F"] is True
            assert rep.clauses["N_ED_T_identity"] is True
        if comps is not None:
            assert rep.clauses["minimality"] is True


def test_ed_report_json_schema(setups):
    st = setups["i"]
    ed = pr.product_ED(st["F"], st["E"], st["D"])
    rep = pr.verify_ed(st["F"], st["E"], st["D"], ed, instance="x")
    j = pr.ed_report_json(rep)
    assert set(j) == {"instance", "clauses", "route"}
    assert set(j["clauses"]) == {"over_TR", "E_normal_in_ED", "D_status",
                                 "ED_normal_in_F", "N_ED_T_identity",
                                 "minimality"}


def test_fold_matches_the_per_clause_rule():
    """``report.fold`` over the ED audit's clauses, with the cross-route
    agreement and the oracle match beside them, against the per-clause
    rule on every reachable combination of values.  With s the status of
    D in N_F(T): D_status is s where D keeps it in N_ED(T), else "fail";
    ED_normal_in_F is None unless s is "normal"; N_ED_T_identity is None
    exactly when s is "subnormal"."""
    seen = set()
    for s, kept, over, e_normal, minimality, agreement, matches in \
            itertools.product(("normal", "subnormal", "fail"),
                              (True, False), (True, False), (True, False),
                              (True, False, "not_enumerable"),
                              (True, False, None), (True, False)):
        for ed_normal in (True, False) if s == "normal" else (None,):
            for identity in ((None,) if s == "subnormal"
                             else (True, False, "unknown")):
                c = {"over_TR": over, "E_normal_in_ED": e_normal,
                     "D_status": s if kept else "fail",
                     "ED_normal_in_F": ed_normal,
                     "N_ED_T_identity": identity, "minimality": minimality}
                want = ed_verdict_by_clause(c)
                if not matches or agreement is False:
                    want = False
                checks = {"cross_route_agreement": agreement,
                          "matches_oracle": matches}
                assert fold({**c, **checks}.values()) == want, (c, checks)
                assert fold(c.values()) == ed_verdict_by_clause(c), c
                seen.add(want)
    assert seen == {True, False, "unknown"}


def test_incremental_close_matches_scratch_along_enumeration(setups):
    """Every step of the exhaust over the closed subsystems of
    product-24's F (``closed_subsystems_by_exhaust``): closing one more map onto the closed system ``cur`` gives the
    system that closing ``cur.maps`` and the map from scratch gives."""
    F = setups["i"]["F"]
    S, cap = F.S, F.morphism_cap
    steps = 0
    for t in F.lattice:
        inside = frozenset(maps_inside(F.maps, t))
        extra = sorted(inside - inner_maps(S, t))
        start = close(S, F.p, [], cap, t=t)
        seen, frontier = {start.maps}, [start]
        while frontier:
            cur = frontier.pop()
            for m in extra:
                if m in cur.maps:
                    continue
                nxt = close(S, F.p, [m], cap, base=cur, t=t)
                assert nxt == close(S, F.p, cur.maps | {m}, cap, t=t)
                steps += 1
                if nxt.maps <= inside and nxt.maps not in seen:
                    seen.add(nxt.maps)
                    frontier.append(nxt)
    assert steps > 50


def _abstract(L):
    return locality_from_descriptor(locality_to_descriptor(L))


@pytest.mark.parametrize("dname", ["instance-a", "instance-b", "product-24",
                                   "product-48"])
def test_abstract_copy_gives_the_realized_verdicts(dname):
    """An abstract copy of L carries the same ids but realizes S by its
    own Cayley group, so F_S(L)'s subgroups are not label sets of L."""
    d = load_descriptor(dname)
    L = build_locality(d)
    A = _abstract(L)
    assert A.realization is None
    assert is_linking_locality(A) == is_linking_locality(L)
    assert pr._locality_route_fault(A) == pr._locality_route_fault(L)
    for pname in sorted(d.get("fusion_products", {})):
        st = product_setup(d, pname)
        want = pr.product_ed_via_locality(st["L"], st["N_ids"], st["K_ids"])
        got = pr.product_ed_via_locality(_abstract(st["L"]), st["N_ids"],
                                         st["K_ids"])
        assert (got.S.order, len(got.maps)) == \
            (want.S.order, len(want.maps)), pname


def _on_positions(images, src, pos):
    """A map of S carried through ``pos``, position i to ``pos[i]``."""
    out = [-1] * len(pos)
    for i in bit_positions(src):
        out[pos[i]] = pos[images[i]]
    return sum(1 << pos[i] for i in bit_positions(src)), tuple(out)


@pytest.mark.parametrize("dname", ["instance-b", "product-24"])
def test_relabelled_copy_gives_the_realized_verdicts_and_maps(dname):
    """A copy of L whose identity is the largest id of S, not the least,
    gives L's validator, linking and route verdicts, and F_S(L) with
    the same maps once the positions of S are matched through the
    relabelling."""
    L = build_locality(load_descriptor(dname))
    R = relabelled_copy(L)
    assert R.identity == max(R.s_ids)
    realized = [(c.name, c.passed) for c in validate_locality(L).checks
                if c.name != "realization_oracle"]
    assert [(c.name, c.passed) for c in validate_locality(R).checks] == \
        realized
    assert is_linking_locality(R) == is_linking_locality(L)
    assert pr._locality_route_fault(R) == pr._locality_route_fault(L)
    pos = [L.s_ids.index(R.n - 1 - s) for s in R.s_ids]
    FL, FR = fusion_of_locality(L), fusion_of_locality(R)
    assert {_on_positions(images, src, pos) for src, images in FR.maps} \
        == FL.maps


def _ids(d, L, *generators):
    return resolve_ids(L, named_subgroup(d, L.realization,
                                         {"generators": list(generators)}))


def test_route_and_theorem2_share_their_hypotheses():
    """Each hypothesis of Theorem 2 that fails on its own on product-24's
    L (S4 at p = 2, Δ all) stops the locality route with the message
    Theorem 2 gives."""
    d = load_descriptor("product-24")
    L = build_locality(d)
    alt = resolve_ids(L, named_subgroup(d, L.realization, "alt"))
    klein = _ids(d, L, [2, 1, 4, 3], [3, 4, 1, 2])
    every = frozenset(range(L.n))
    cases = [
        (alt - {L.identity}, klein, "N is not a partial subgroup"),
        (_ids(d, L, [2, 1, 4, 3]), klein, "N is not partial normal in L"),
        # N = L: T = S, and N_L(S) = S
        (every, every, "K does not lie in N_L(T)"),
        (alt, klein - {L.identity}, "K is not a partial subgroup"),
        (alt, _ids(d, L, [2, 1, 3, 4]), "K is not subnormal in N_L(T)"),
    ]
    for N, K, message in cases:
        with pytest.raises(PreconditionError) as route:
            pr.product_ed_via_locality(L, N, K)
        with pytest.raises(PreconditionError) as theorem:
            verify_theorem_nk_subnormal(L, N, K)
        assert str(route.value) == str(theorem.value) == message


ROUTE_GROUPS = {
    "S4": [[(1, 2, 3, 4)], [(1, 2)]],
    "S3xS3": [[(1, 2)], [(1, 2, 3)], [(4, 5)], [(4, 5, 6)]],
    "A5": [[(1, 2, 3, 4, 5)], [(1, 2, 3)]],
    "S6": [[(1, 2, 3, 4, 5, 6)], [(1, 2)]],
}


def _locality_at(name, min_order):
    """L_delta(G) at p = 2, delta = the subgroups of S of order >=
    ``min_order``."""
    gens = ROUTE_GROUPS[name]
    degree = max(max(c) for g in gens for c in g)
    G = FiniteGroup(degree, [from_cycles(degree, *g) for g in gens])
    S = sylow_subgroup(G, 2)
    return locality_from_group(G, S, delta_min_order(S, min_order), 2)


@pytest.mark.parametrize("name,min_order,fault", [
    ("S4", 2, "object set does not contain every subcentric subgroup"),
    ("S6", 2, None),
    ("S3xS3", 1, "locality is not a linking locality"),
])
def test_route_subcentric_clause(name, min_order, fault, monkeypatch):
    """The route's fault is the whole-lattice one, and subcentricity is
    asked only outside delta, once per F_S(L)-class, up to the first
    subcentric subgroup."""
    L = _locality_at(name, min_order)
    asked = []

    def subcentric(F, m):
        v = is_subcentric(F, m)
        asked.append((m, v))
        return v
    monkeypatch.setattr(pr, "is_subcentric", subcentric)
    assert pr._locality_route_fault(L) == fault
    assert locality_route_fault_by_lattice(_locality_at(name, min_order)) \
        == fault
    F = fusion_of_locality(L)
    outside = {frozenset(F.conjugates(m)) for m in F.lattice
               if m not in L.delta}
    assert all(m not in L.delta for m, _ in asked)
    assert len({frozenset(F.conjugates(m))
                for m, _ in asked}) == len(asked)
    verdicts = [v for _, v in asked]
    if fault is None:  # every class outside delta asked, none subcentric
        assert outside and len(asked) == len(outside)
        assert not any(verdicts)
    elif fault.startswith("object set"):
        assert verdicts[-1] and not any(verdicts[:-1])
    else:
        assert asked == []


@pytest.mark.parametrize("name,min_order", [
    (name, m) for name in ROUTE_GROUPS for m in (1, 2, 4, 8)
    if not (m == 8 and name in ("S3xS3", "A5"))])  # |S| = 4 there
def test_route_preconditions_match_per_object_and_lattice(name, min_order):
    """The linking certificate and the route's fault equal the per-object
    certificate and the whole-lattice subcentric test."""
    L = _locality_at(name, min_order)
    A = _locality_at(name, min_order)
    assert is_linking_locality(L) == linking_per_object(A)
    assert pr._locality_route_fault(L) == locality_route_fault_by_lattice(A)


@pytest.mark.parametrize("dname", ["product-24", "product-48"])
def test_route_builds_no_normalizer_system_when_delta_is_all(dname,
                                                            monkeypatch):
    """Delta holds every subgroup of S, so no subgroup is asked whether it
    is subcentric."""
    L = build_locality(load_descriptor(dname))
    assert len(L.delta) == len(L.lattice)
    monkeypatch.setattr(pr, "is_subcentric", None)
    assert pr._locality_route_fault(L) is None


def test_route_asks_each_class_outside_delta_once(monkeypatch):
    """With every answer "not subcentric", the route walks all of the
    subgroups outside delta (S6, delta = order >= 8) and asks one member
    of each F_S(L)-class."""
    L = _locality_at("S6", 8)
    F = fusion_of_locality(L)
    asked = []
    monkeypatch.setattr(pr, "is_subcentric",
                        lambda F, m: asked.append(m) and False)
    assert pr._locality_route_fault(L) is None
    classes = {frozenset(F.conjugates(m)) for m in F.lattice
               if m not in L.delta}
    assert sorted(len(c & set(asked)) for c in classes) == [1] * len(classes)
    assert len(asked) == len(classes) < sum(map(len, classes))
