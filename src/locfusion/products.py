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
                     is_centric, is_normal_subsystem, is_subcentric,
                     is_subnormal_subsystem, is_subsystem, kept,
                     maps_inside, normalizer_system, restriction,
                     subnormal_subsystems, trivial_modulo)
from .locality import Locality, is_linking_locality
from .partial_subgroups import (check_theorem2_hypotheses, is_partial_subgroup,
                                set_product)
from .permgroup import perm_order
from .report import PreconditionError, Report


class NormalityRequired(PreconditionError):
    """The generation formula only covers D normal in the normalizer system."""


def a_fe(F: FusionSystem, E: FusionSystem, m: int) -> set[Morphism]:
    """Generators of A(P), for the subgroup P with mask m: the
    automorphisms of P of p'-order that centralize P modulo P∩T and
    restrict into E on P∩T, with their orders read off the permutation
    group Aut_F(P) (``aut_group``).  The closure of the product generates
    the rest of A(P)."""
    pt = m & E.t  # P∩T
    _, to_perm = aut_group(F, m)
    return {restriction(phi, m) for phi, x in to_perm.items()
            if perm_order(x) % F.p and trivial_modulo(F, phi, m, pt)
            and restriction(phi, pt) in E.maps}


def _tr_subgroup(F: FusionSystem, t: int, r: int) -> int:
    """The mask of TR, for the subgroups T and R of S with masks t and r:
    their join (``SIndex.join``), which is TR exactly when
    |<T, R>| |T∩R| = |T| |R|."""
    tr = F.index.join(t, r)
    if tr.bit_count() * (t & r).bit_count() != t.bit_count() * r.bit_count():
        raise PreconditionError("TR is not a subgroup (T not normalized by R)")
    return tr


def _er_generators(F: FusionSystem, E: FusionSystem,
                   tr: int) -> set[Morphism]:
    """The A(P) families of E inside F over the P <= TR (mask tr)."""
    gens: set[Morphism] = set()
    for m in F.lattice:
        if m & tr == m and is_centric(E, m & E.t):
            gens |= a_fe(F, E, m)
    return maps_inside(gens, tr)


def _status(N: FusionSystem, D: FusionSystem) -> str:
    """Status of D in the system N: normal, subnormal or fail (also when
    D is not a subsystem of N)."""
    if is_normal_subsystem(N, D):
        return "normal"
    return "subnormal" if is_subnormal_subsystem(N, D)[0] else "fail"


def product_ED(F: FusionSystem, E: FusionSystem,
               D: FusionSystem) -> FusionSystem:
    """Product subsystem of E (normal in F, over T) and D (normal in the
    normalizer system of T, over R), generated over TR."""
    if not is_normal_subsystem(F, E):
        raise PreconditionError("E is not normal in F")
    NFT = normalizer_system(F, E.t)
    status = _status(NFT, D)
    if status == "fail":
        raise PreconditionError("D is not subnormal in the normalizer system")
    if status != "normal":
        raise NormalityRequired(
            "D is subnormal but not normal; use the locality route")
    tr = _tr_subgroup(F, E.t, D.t)
    gens = _er_generators(F, E, tr) | _er_generators(NFT, D, tr)
    return close(F.index.S, F.p, gens, F.morphism_cap, t=tr)


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


def product_by_route(F: FusionSystem, E: FusionSystem, D: FusionSystem,
                     L: Locality, N: Iterable[int], K: Iterable[int]
                     ) -> tuple[FusionSystem, str, Optional[bool]]:
    """(ED, route, cross_route_agreement): the generation formula gives
    ED where it applies, and the locality route, where defined, is
    compared against it (None where it is not); for D subnormal but not
    normal the locality route alone gives ED."""
    try:
        ed = product_ED(F, E, D)
    except NormalityRequired:
        return product_ed_via_locality(L, N, K), "locality", None
    try:
        return ed, "formula_e", ed == product_ed_via_locality(L, N, K)
    except PreconditionError:
        return ed, "formula_e", None


@kept
def _locality_route_fault(L: Locality) -> Optional[str]:
    """Why L cannot carry the locality route, or None: L must be a
    linking locality whose object set holds every subcentric subgroup.
    Neither part depends on N or K, so the answer is kept on L.

    A subgroup in delta never breaks the second part, so subcentricity
    is decided only for subgroups outside delta: at the first member
    outside delta of each F_S(L)-class, since it is a property of the
    class, and only up to the first subcentric one.  When delta holds
    every subgroup of S, no normalizer system is built."""
    if not is_linking_locality(L)[0]:
        return "locality is not a linking locality"
    F = fusion_of_locality(L)
    outside = ([m for m in cls if m not in L.delta] for cls in F.classes())
    if any(is_subcentric(F, out[0]) for out in outside if out):
        return "object set does not contain every subcentric subgroup"
    return None


def enumerate_subnormal_subsystems(F: FusionSystem) -> list[FusionSystem]:
    """``subnormal_subsystems`` of F, by Sylow subgroup, then by maps."""
    return sorted(subnormal_subsystems(F), key=lambda X: (
        X.S.order, X.S.elements, len(X.maps), sorted(X.maps)))


def verify_ed(F: FusionSystem, E: FusionSystem, D: FusionSystem,
              ED: FusionSystem, instance: str = "",
              route: str = "formula_e",
              comparisons: Optional[Sequence[FusionSystem]] = None) -> Report:
    """Audit the product subsystem: carrier, normality of E, preserved
    status of D, normality in F, the normalizer identity, and minimality
    against a supplied enumeration of subnormal subsystems.

    ``report.fold`` over these clauses gives the verdict the per-clause
    rule gave, which let None pass only in ``ED_normal_in_F`` and, beside
    a subnormal ``D_status``, in ``N_ED_T_identity``: with s the status
    of D in N_F(T), the identity is None exactly when s is "subnormal"
    (``D_status`` is then s or "fail"), ``ED_normal_in_F`` is None
    exactly when s is not "normal", and only the identity can be
    "unknown"."""
    rep = Report(suite="ed", instance=instance)
    rep.extra["route"] = route
    t = E.t
    rep.set("over_TR", ED.t == _tr_subgroup(F, t, D.t))
    rep.set("E_normal_in_ED", is_normal_subsystem(ED, E))

    # D keeps its status in N_ED(T) when it is at least as close to
    # normal there: a D subnormal in N_F(T) may be normal in N_ED(T)
    NFT = normalizer_system(F, t)
    NEDT = normalizer_system(ED, t)
    status = _status(NFT, D)
    kept = status != "fail" and _status(NEDT, D) in (status, "normal")
    rep.set("D_status", status if kept else "fail")

    rep.set("ED_normal_in_F",
            is_normal_subsystem(F, ED) if status == "normal" else None)

    rep.set("N_ED_T_identity", _normalizer_identity(NFT, NEDT, E, D))

    if comparisons is None:
        rep.set("minimality", "not_enumerable")
    else:
        # ED lies in every X with E subnormal in X and D in N_X(T)
        rep.set("minimality", all(
            is_subsystem(other, ED) for other in comparisons
            if is_subnormal_subsystem(other, E)[0]
            and is_subnormal_subsystem(normalizer_system(other, t), D)[0]))
    return rep


def _normalizer_identity(NFT, NEDT, E, D):
    """N_ED(T) against the product of N_E(T) and D inside N_F(T)."""
    NET = normalizer_system(E, E.t)
    try:
        rhs = product_ED(NFT, NET, D)
    except NormalityRequired:
        return None  # formula not applicable for subnormal D
    except PreconditionError:
        return "unknown"
    return NEDT == rhs


def ed_report_json(rep: Report) -> dict:
    return {"instance": rep.instance,
            "clauses": dict(sorted(rep.clauses.items())),
            "route": rep.extra.get("route", "formula_e")}
