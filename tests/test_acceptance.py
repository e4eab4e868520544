"""Acceptance gate: one test per criterion, exact checks only.

Run with -v to get one pass/fail line per criterion.
"""

import pytest

from locfusion import fusion as fu
from locfusion import products as pr
from locfusion.instances import (build_locality, delta_of, k_choice,
                                 load_descriptor, named_subgroup,
                                 product_setup, resolve_ids, sylow_of)
from locfusion.locality import (normalizer_carrier, validate_locality)
from locfusion.partial_subgroups import (set_product,
                                         verify_restriction_product,
                                         verify_theorem_nk_normal,
                                         verify_theorem_nk_subnormal)
from locfusion.permgroup import sylow_subgroup

from bundled import bundled_groups, net_triples


@pytest.fixture(scope="module")
def desc_b():
    return load_descriptor("instance-b")


@pytest.fixture(scope="module")
def lb(desc_b):
    return build_locality(desc_b)


@pytest.fixture(scope="module")
def n_alt(desc_b, lb):
    return resolve_ids(lb, named_subgroup(desc_b, lb.realization, "alt"))


@pytest.fixture(scope="module")
def product_setups():
    return [product_setup(load_descriptor("product-24"), "i"),
            product_setup(load_descriptor("product-24"), "ii"),
            product_setup(load_descriptor("product-48"), "iii")]


def test_criterion_1_locality_axioms_and_conjugation_identities(lb):
    la = build_locality(load_descriptor("instance-a"))
    rep_a = validate_locality(la, max_word_length=5)
    assert rep_a.ok, rep_a.to_json()
    rep_b = validate_locality(lb, max_word_length=4)
    assert rep_b.ok, rep_b.to_json()


def test_criterion_2_nk_product_with_normal_k(desc_b, lb, n_alt):
    for kname in ("trivial", "t", "order12", "nlt"):
        rep = verify_theorem_nk_normal(lb, n_alt, k_choice(desc_b, lb, kname),
                                       instance=kname)
        assert rep.ok, (kname, rep.to_json())


def test_criterion_3_nk_product_with_subnormal_k(desc_b, lb, n_alt):
    K = k_choice(desc_b, lb, "u2")
    rep = verify_theorem_nk_subnormal(lb, n_alt, K, instance="u2")
    assert rep.ok, rep.to_json()
    assert "regularity_not_certified" in rep.flags
    # S cap NK = T: the chain field witnesses subnormality
    assert rep.clauses["nk_subnormal"] is True
    assert rep.clauses["nk_cap_s_equals_t_times_k_cap_s"] is True


def test_criterion_4_restriction_compatibility(desc_b, lb, n_alt):
    G = lb.realization
    S = sylow_of(desc_b, G)
    sub_delta = delta_of({**desc_b, "delta": {"min_order": 8}}, G, S)
    delta_ids = [frozenset(lb.id_of[g] for g in P.eset) for P in sub_delta]
    K = k_choice(desc_b, lb, "order12")
    rep = verify_restriction_product(lb, delta_ids, n_alt, K,
                                     instance="instance-b")
    assert rep.ok, rep.to_json()


def test_criterion_5_fusion_equivalence_and_saturation():
    la = build_locality(load_descriptor("instance-a"))
    F_loc = fu.fusion_of_locality(la)
    F_grp = fu.fusion_of_group(la.realization,
                               la.realization.subgroup(la.label_set(la.s_ids)),
                               p=la.p)
    assert F_loc == F_grp
    groups = bundled_groups()
    assert len(groups) >= 5
    assert sorted(len(G) for _, G, _ in groups) == [8, 24, 48, 60, 120]
    for name, G, p in groups:
        F = fu.fusion_of_group(G, sylow_subgroup(G, p), p=p)
        assert fu.is_saturated(F), name


def test_criterion_6_normalizer_fusion_identity():
    triples = net_triples()
    assert triples
    for name, L, H, T_labels in triples:
        EH = fu.fusion_of_partial_subgroup(L, H)
        T = EH.subgroup(frozenset(T_labels))
        assert fu.is_strongly_closed(EH, EH.mask_of(T)), name
        lhs = fu.normalizer_system(EH, EH.mask_of(T))
        t_ids = frozenset(L.ids_of_labels(T_labels))
        NH = frozenset(normalizer_carrier(L, t_ids)) & H
        rhs = fu.fusion_of_partial_subgroup(L, NH)
        assert lhs == rhs, name


def test_criterion_7_product_against_group_oracle(product_setups):
    st_i, st_ii, st_iii = product_setups
    ed_i = pr.product_ED(st_i["F"], st_i["E"], st_i["D"])
    assert ed_i == st_i["E"] == st_i["oracle"]
    ed_ii = pr.product_ED(st_ii["F"], st_ii["E"], st_ii["D"])
    assert ed_ii == st_ii["F"] == st_ii["oracle"]
    ed_iii = pr.product_ED(st_iii["F"], st_iii["E"], st_iii["D"])
    assert ed_iii == st_iii["oracle"]
    assert st_iii["E"].maps < ed_iii.maps
    assert ed_iii != st_iii["F"]


def test_criterion_8_product_clause_suite(product_setups):
    for st in product_setups:
        ed = pr.product_ED(st["F"], st["E"], st["D"])
        comps = (pr.enumerate_subnormal_subsystems(st["F"])
                 if st["enumerate_minimality"] else None)
        rep = pr.verify_ed(st["F"], st["E"], st["D"], ed,
                           instance=st["name"], comparisons=comps)
        c = rep.clauses
        assert c["over_TR"] is True, st["name"]
        assert c["E_normal_in_ED"] is True, st["name"]
        assert c["D_status"] == "normal", st["name"]
        assert c["ED_normal_in_F"] is True, st["name"]
        assert c["N_ED_T_identity"] is True, st["name"]
        if comps is not None:
            assert c["minimality"] is True, st["name"]
    assert any(st["enumerate_minimality"] for st in product_setups)


def test_criterion_9_cross_route_agreement(product_setups):
    subn = product_setup(load_descriptor("product-24"), "subn")
    for st in product_setups:
        ed = pr.product_ED(st["F"], st["E"], st["D"])
        ed_loc = pr.product_ed_via_locality(st["L"], st["N_ids"],
                                            st["K_ids"])
        assert ed == ed_loc, st["name"]
    # the subnormal case only admits the locality route; it still matches
    # the group oracle
    ed_loc = pr.product_ed_via_locality(subn["L"], subn["N_ids"],
                                        subn["K_ids"])
    assert ed_loc == subn["oracle"]
