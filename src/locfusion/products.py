"""Product subsystems of saturated fusion systems.

Builds the subsystem generated, over TR, by two families of automorphism
groups: for a normal subsystem E over T, the groups A(P) of p'-generated
automorphisms acting trivially modulo P∩T, taken over P ≤ TR with P∩T
centric in E; and the matching family for a second system D over R inside
the normalizer system of T.  The same product is also computed through a
linking locality as the fusion system of a product NK of partial normal
subgroups, and the two routes are cross-checked.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .fusion import (FusionSystem, Morphism, aut_group, close,
                     fusion_of_locality, fusion_of_partial_subgroup,
                     inner_maps, is_centric, is_normal_subsystem,
                     is_subcentric, is_subnormal_subsystem, is_subsystem,
                     maps_inside, normalizer_system, restriction,
                     subgroup_lattice, trivial_modulo)
from .locality import Locality, is_linking_locality
from .partial_subgroups import (check_theorem2_hypotheses, is_partial_subgroup,
                                set_product)
from .permgroup import (SizeCapExceeded, Subgroup, compose, generated_subgroup,
                        perm_order)
from .report import PreconditionError, Report

# the most closed subsystems enumerated over one subgroup of S
SUBSYSTEM_ENUM_CAP = 2000


class NormalityRequired(PreconditionError):
    """The generation formula only covers D normal in the normalizer system."""


def a_fe(F: FusionSystem, E: FusionSystem, P: Subgroup) -> set[Morphism]:
    """Automorphisms of P generated by p'-elements that centralize P
    modulo P∩T and restrict into E on P∩T, generated inside Aut_F(P) as
    a permutation group (``aut_group``)."""
    pt = F.subgroup(P.eset & E.S.eset)
    in_e = E.maps_over(F.S)
    A, to_perm = aut_group(F, P)
    good = [x for phi, x in to_perm.items()
            if perm_order(x) % F.p and trivial_modulo(F, phi, P, pt)
            and restriction(F, phi, pt) in in_e]
    of_perm = {x: phi for phi, x in to_perm.items()}
    return {restriction(F, of_perm[x], P)
            for x in generated_subgroup(A, good)}


def _tr_subgroup(F: FusionSystem, T: frozenset, R: frozenset) -> Subgroup:
    prod = frozenset(compose(t, r) for t in T for r in R)
    if frozenset(compose(r, t) for t in T for r in R) != prod:
        raise PreconditionError("TR is not a subgroup (T not normalized by R)")
    return F.subgroup(prod)


def _er_generators(F: FusionSystem, E: FusionSystem,
                   TR: Subgroup) -> set[Morphism]:
    """The A(P) families of E inside F, on the positions of TR."""
    gens: set[Morphism] = set()
    for P in subgroup_lattice(F.S):
        if P.eset <= TR.eset and is_centric(E, E.subgroup(P.eset & E.S.eset)):
            gens |= a_fe(F, E, P)
    return maps_inside(F, TR, gens)


def _status(N: FusionSystem, D: FusionSystem) -> str:
    """Status of D in the system N: normal, subnormal or fail (also when
    D is not a subsystem of N)."""
    if is_normal_subsystem(N, D):
        return "normal"
    return "subnormal" if is_subnormal_subsystem(N, D)[0] is True else "fail"


def product_ED(F: FusionSystem, E: FusionSystem,
               D: FusionSystem) -> FusionSystem:
    """Product subsystem of E (normal in F, over T) and D (normal in the
    normalizer system of T, over R), generated over TR."""
    if not is_normal_subsystem(F, E):
        raise PreconditionError("E is not normal in F")
    T = F.subgroup(E.S.eset)
    NFT = normalizer_system(F, T)
    status = _status(NFT, D)
    if status == "fail":
        raise PreconditionError("D is not subnormal in the normalizer system")
    if status != "normal":
        raise NormalityRequired(
            "D is subnormal but not normal; use the locality route")
    TR = _tr_subgroup(F, T.eset, D.S.eset)
    gens = _er_generators(F, E, TR) | _er_generators(NFT, D, TR)
    return close(TR, F.p, gens, F.morphism_cap)


def product_ed_via_locality(L: Locality, N: Iterable[int], K: Iterable[int]
                            ) -> FusionSystem:
    """The product through a linking locality: the fusion system of the
    partial subgroup NK over T·(S∩K), in the setting of Theorem 2
    (``check_theorem2_hypotheses``), under L's word bound and cap."""
    N = frozenset(N)
    K = frozenset(K)
    check_theorem2_hypotheses(L, N, K)
    fault = _locality_route_fault(L)
    if fault:
        raise PreconditionError(fault)
    nk = set_product(L, N, K)
    if not is_partial_subgroup(L, nk):
        raise PreconditionError("NK is not a partial subgroup")
    return fusion_of_partial_subgroup(L, nk)


def _locality_route_fault(L: Locality) -> Optional[str]:
    """Why L cannot carry the locality route, or None: L must be a
    linking locality whose object set holds every subcentric subgroup.
    Neither part depends on N or K, so the answer is memoized on L.

    A subgroup in delta never breaks the second part, so subcentricity
    is decided only for subgroups outside delta: at the first member
    outside delta of each F_S(L)-class, since it is a property of the
    class, and only up to the first subcentric one.  When delta holds
    every subgroup of S, no normalizer system is built."""
    key = ("locality_route",)
    if key not in L._verdicts:
        fault = None
        if not is_linking_locality(L)[0]:
            fault = "locality is not a linking locality"
        else:
            F = fusion_of_locality(L)
            outside = ([P for P in cls if F.index.mask(P.eset) not in L.delta]
                       for cls in F.classes())
            if any(is_subcentric(F, out[0]) for out in outside if out):
                fault = ("object set does not contain every subcentric "
                         "subgroup")
        L._verdicts[key] = fault
    return L._verdicts[key]


def enumerate_subnormal_subsystems(F: FusionSystem) -> list[FusionSystem]:
    """All subnormal subsystems of F, by exhausting closed subsystems over
    each subgroup of S (SizeCapExceeded past ``SUBSYSTEM_ENUM_CAP`` over
    one) and filtering with the chain search.  Each candidate is closed
    incrementally from the closed system it extends by one map."""
    out = []
    for T in subgroup_lattice(F.S):
        inside = frozenset(maps_inside(F, T, F.maps))
        extra = sorted(inside - inner_maps(T))
        systems = [close(T, F.p, [], F.morphism_cap)]
        seen = {systems[0].maps}
        frontier = list(systems)
        while frontier:
            cur = frontier.pop()
            for m in extra:
                if m in cur.maps:
                    continue
                nxt = close(T, F.p, [m], F.morphism_cap, base=cur)
                if nxt.maps <= inside and nxt.maps not in seen:
                    seen.add(nxt.maps)
                    systems.append(nxt)
                    frontier.append(nxt)
                    if len(seen) > SUBSYSTEM_ENUM_CAP:
                        raise SizeCapExceeded(
                            "subsystem enumeration exceeded "
                            f"{SUBSYSTEM_ENUM_CAP} closed subsystems over "
                            "one subgroup of S")
        out += [X for X in systems if is_subnormal_subsystem(F, X)[0] is True]
    return sorted(out, key=lambda X: (X.S.order, X.S.elements,
                                      len(X.maps), sorted(X.maps)))


def verify_ed(F: FusionSystem, E: FusionSystem, D: FusionSystem,
              ED: FusionSystem, instance: str = "",
              route: str = "formula_e",
              comparisons: Optional[Sequence[FusionSystem]] = None) -> Report:
    """Audit the product subsystem: carrier, normality of E, preserved
    status of D, normality in F, the normalizer identity, and minimality
    against a supplied enumeration of subnormal subsystems."""
    rep = Report(suite="ed", instance=instance)
    rep.extra["route"] = route
    T = F.subgroup(E.S.eset)
    tr = _tr_subgroup(F, T.eset, D.S.eset).eset
    rep.set("over_TR", ED.S.eset == tr)
    rep.set("E_normal_in_ED", is_normal_subsystem(ED, E))

    # D keeps its status in N_ED(T) when it is at least as close to
    # normal there: a D subnormal in N_F(T) may be normal in N_ED(T)
    NFT = normalizer_system(F, T)
    NEDT = normalizer_system(ED, ED.subgroup(T.eset))
    status = _status(NFT, D)
    kept = status != "fail" and _status(NEDT, D) in (status, "normal")
    rep.set("D_status", status if kept else "fail")

    rep.set("ED_normal_in_F",
            is_normal_subsystem(F, ED) if status == "normal" else None)

    rep.set("N_ED_T_identity", _normalizer_identity(NFT, NEDT, E, D, T))

    if comparisons is None:
        rep.set("minimality", "not_enumerable")
    else:
        # ED lies in every system with E subnormal in it and D subnormal
        # in its normalizer of T (each chain search first asks whether
        # the smaller system is a subsystem at all)
        rep.set("minimality", all(
            is_subsystem(other, ED) for other in comparisons
            if is_subnormal_subsystem(other, E)[0] is True
            and is_subnormal_subsystem(normalizer_system(
                other, other.subgroup(T.eset)), D)[0] is True))
    return rep


def _normalizer_identity(NFT, NEDT, E, D, T):
    """N_ED(T) against the product of N_E(T) and D inside N_F(T)."""
    NET = normalizer_system(E, E.subgroup(T.eset))
    try:
        rhs = product_ED(NFT, NET, D)
    except NormalityRequired:
        return None  # formula not applicable for subnormal D
    except PreconditionError:
        return "unknown"
    return NEDT == rhs


def ed_verdict(rep: Report) -> bool | str:
    """False when a clause fails, else "unknown" when the normalizer
    identity could not be decided, else True: a failed clause beats an
    unknown one."""
    c = rep.clauses
    identity = c.get("N_ED_T_identity")
    if not (c.get("over_TR") is True
            and c.get("E_normal_in_ED") is True
            and c.get("D_status") in ("normal", "subnormal")
            and c.get("ED_normal_in_F") in (True, None)
            and (identity in (True, "unknown")
                 or (c.get("D_status") == "subnormal" and identity is None))
            and c.get("minimality") in (True, "not_enumerable")):
        return False
    return "unknown" if identity == "unknown" else True


def ed_report_json(rep: Report) -> dict:
    return {"instance": rep.instance,
            "clauses": dict(sorted(rep.clauses.items())),
            "route": rep.extra.get("route", "formula_e")}
