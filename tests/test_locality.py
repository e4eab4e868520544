"""Locality construction and axiom checks against group-side oracles."""

import itertools
import random
from pathlib import Path

import pytest

from locfusion import locality
from locfusion.fusion import (centric_radicals, fully_normalized_conjugate,
                              fusion_of_locality, is_saturated)
from locfusion.instances import (BUNDLED, Instance, build_locality,
                                 delta_of, load_descriptor)
from locfusion.locality import (Locality, LocalityError, _s_group_fault,
                                _sub_locality, _word_states,
                                delta_min_order, is_linking_locality,
                                local_p_core, locality_from_descriptor,
                                locality_from_group, locality_to_descriptor,
                                normalizer_carrier, restriction,
                                strongly_closed_in_carrier, validate_locality)
from locfusion.permgroup import (FiniteGroup, all_subgroups, compose,
                                 conjugate, domain_mask, inverse, p_core,
                                 sylow_subgroup, _p_part)

from answer_oracles import (linking_per_object, local_group,
                            locality_tables, locality_tables_by_pairs,
                            ref_split_fault)
from bundled import relabelled_copy
from cycles import from_cycles


def s_of_word(L, w):
    """S_w as a set of carrier ids; S itself for the empty word."""
    return L.ids_of(L.s_mask(w))


def in_domain(L, w):
    return L.s_mask(w) in L.delta


def normalizer_locality(L, t_ids):
    """(N_L(T), delta, S) for T <= S strongly closed in F_S(L)."""
    t_ids = sorted(t_ids)
    if not strongly_closed_in_carrier(L, t_ids):
        raise LocalityError("T is not strongly closed in F_S(L)")
    return _sub_locality(L, normalizer_carrier(L, t_ids), L.delta)


def _oracle_s_g(G, S, g):
    """Brute force: elements of S conjugated back into S by g."""
    return frozenset(s for s in S if conjugate(s, g) in S.eset)


def test_carrier_a_is_all_of_g(loc_a):
    assert loc_a.n == 24


def test_carrier_a_brute_force(loc_a, s4, s4_sylow):
    carrier = {g for g in s4 if len(_oracle_s_g(s4, s4_sylow, g)) >= 4}
    assert set(loc_a.labels) == carrier


def test_carrier_b_is_proper(loc_b, s5, s5_sylow):
    assert loc_b.n == 24
    swap45 = from_cycles(5, (4, 5))
    assert swap45 not in loc_b.id_of
    assert len(_oracle_s_g(s5, s5_sylow, swap45)) == 2


def test_s_of_word_oracle(loc_b, s5, s5_sylow):
    t12 = loc_b.id_of[from_cycles(5, (1, 2))]
    sw = s_of_word(loc_b, (t12,))
    oracle = _oracle_s_g(s5, s5_sylow, from_cycles(5, (1, 2)))
    assert loc_b.label_set(sw) == oracle
    assert len(sw) == 4


def test_in_domain_examples(loc_b):
    t12 = loc_b.id_of[from_cycles(5, (1, 2))]
    assert in_domain(loc_b, (t12, t12))


def test_partial_domain_on_larger_symmetric_group():
    """A locality whose product is genuinely partial: some length-2
    words have S_w below the object threshold."""
    s6 = FiniteGroup(6, [from_cycles(6, (1, 2, 3, 4, 5, 6)),
                         from_cycles(6, (1, 2))])
    s = sylow_subgroup(s6, 2)
    L = locality_from_group(s6, s, delta_min_order(s, 8), 2)
    assert L.n == 80
    found = None
    for f, g in itertools.product(range(L.n), repeat=2):
        if len(s_of_word(L, (f, g))) < 8:
            found = (f, g)
            break
    assert found is not None
    assert not in_domain(L, found)
    assert validate_locality(L, max_word_length=3).ok


def test_product_matches_group_oracle(loc_a, s4):
    for f, g in itertools.product(range(loc_a.n), repeat=2):
        if in_domain(loc_a, (f, g)):
            h = loc_a.fold((f, g))
            assert loc_a.labels[h] == compose(loc_a.labels[f], loc_a.labels[g])


def test_inversion_table(loc_a):
    for f in range(loc_a.n):
        assert loc_a.labels[loc_a.inv[f]] == inverse(loc_a.labels[f])


def test_validate_instance_a_word_len_5(loc_a):
    rep = validate_locality(loc_a, max_word_length=5)
    assert rep.ok, rep.to_json()


def test_validate_instance_b_word_len_4(loc_b):
    rep = validate_locality(loc_b, max_word_length=4)
    assert rep.ok, rep.to_json()


def test_delta_requires_s(s4, s4_sylow):
    with pytest.raises(LocalityError):
        locality_from_group(s4, s4_sylow,
                            [P for P in all_subgroups(s4, within=s4_sylow)
                             if P.order == 4], 2)


def test_restriction_to_sylow_only(loc_b, s5, s5_sylow):
    s_ids = frozenset(loc_b.s_ids)
    sub = restriction(loc_b, [s_ids])
    # oracle: carrier of the restriction is N_L(S)
    oracle = {loc_b.labels[f] for f in range(loc_b.n)
              if s_of_word(loc_b, (f,)) == s_ids}
    assert set(sub.labels) == oracle
    nls = {g for g in s5
           if g in loc_b.id_of
           and all(conjugate(s, g) in s5_sylow.eset for s in s5_sylow)}
    assert oracle == nls


def test_restriction_product_matches_pair_keyed_filter():
    """The rows of a restriction hold exactly the pairs of L+ with both
    factors and the product in the new carrier and S_(i,j) in the new
    object set, renumbered through the labels."""
    s6 = FiniteGroup(6, [from_cycles(6, (1, 2, 3, 4, 5, 6)),
                         from_cycles(6, (1, 2))])
    s = sylow_subgroup(s6, 2)
    Lp = locality_from_group(s6, s, delta_min_order(s, 4), 2)
    small = [Lp.ids_of(d) for d in Lp.delta if d.bit_count() >= 8]
    sub = restriction(Lp, small)
    masks = {Lp.mask_of(d) for d in small}
    carrier = {Lp.labels[f] for f in range(Lp.n) if Lp._sf[f] in masks}
    lab = Lp.labels
    want = {(lab[i], lab[j], lab[k]) for (i, j), k in Lp.prod.items()
            if {lab[i], lab[j], lab[k]} <= carrier
            and Lp.s_mask((i, j)) in masks}
    got = {(sub.labels[i], sub.labels[j], sub.labels[k])
           for (i, j), k in sub.prod.items()}
    assert got == want and len(sub.prod) < len(Lp.prod)


def test_restriction_requires_subfamily(loc_b):
    small = frozenset(list(loc_b.s_ids)[:2])
    with pytest.raises(LocalityError):
        restriction(loc_b, [small])


def test_normalizer_locality_order24(loc_b):
    t = loc_b.ids_of_labels([from_cycles(5, (1, 2), (3, 4)),
                             from_cycles(5, (1, 3), (2, 4)),
                             from_cycles(5, (1, 4), (2, 3)),
                             tuple(range(5))])
    nl = normalizer_locality(loc_b, t)
    assert nl.n == 24
    # oracle: elements whose conjugation fixes T setwise
    t_labels = loc_b.label_set(t)
    oracle = {g for g in (loc_b.labels[f] for f in range(loc_b.n))
              if {conjugate(x, g) for x in t_labels} == set(t_labels)}
    assert set(nl.labels) == oracle


def test_local_group_of_sylow(loc_a):
    got = local_group(loc_a, frozenset(loc_a.s_ids))
    assert got is not None
    G, _ = got
    assert len(G) == 8


def test_linking_locality_true(loc_a):
    ok, rep = is_linking_locality(loc_a)
    assert ok, rep


def test_linking_locality_false_with_central_3_factor():
    g = FiniteGroup(7, [from_cycles(7, (1, 2, 3, 4)), from_cycles(7, (1, 2)),
                        from_cycles(7, (5, 6, 7))])
    s = sylow_subgroup(g, 2)
    delta = all_subgroups(g, within=s)
    L = locality_from_group(g, s, delta, 2)
    ok, rep = is_linking_locality(L)
    assert (ok, rep) == linking_per_object(L)
    assert not ok
    assert rep["witness"] == "N_L(P) of order 72 is not of characteristic 2"


@pytest.mark.parametrize("name", BUNDLED)
def test_linking_certificate_matches_per_object_on_bundled(name):
    L = build_locality(load_descriptor(name))
    assert is_linking_locality(L) == linking_per_object(L)


def test_linking_certificate_tests_a_non_subgroup_object_on_its_own(loc_a):
    """A delta member that is no subgroup of S has no F_S(L)-class: the
    certificate still gives the per-object answer, not an error."""
    d = locality_to_descriptor(loc_a)
    s = [x for x in d["S"] if x != d["identity"]]
    d["delta"].insert(0, s[:2])
    A = locality_from_descriptor(d)
    assert is_linking_locality(A) == linking_per_object(A)


def _s6_locality(min_order, p=2):
    G = FiniteGroup(6, [from_cycles(6, (1, 2, 3, 4, 5, 6)),
                        from_cycles(6, (1, 2))])
    S = sylow_subgroup(G, p)
    return locality_from_group(G, S, delta_min_order(S, min_order), p)


def _fully_normalized(F, d):
    """Whether the subgroup of S with mask d has the largest N_S in its
    F-class."""
    idx = F.index
    size = idx.normalizer(d).bit_count
    return size() == max(idx.normalizer(q).bit_count()
                         for q in F.conjugates(d))


def test_linking_certificate_tests_one_object_per_class(monkeypatch):
    """On S6, p = 2, delta = order >= 4: the per-object verdict and
    report, with N_L(P) and its O_p read once per F_S(L)-class of delta,
    at the class's fully normalized member, in the order of the classes'
    first objects."""
    L = _s6_locality(4)
    F = fusion_of_locality(L)
    classes = [cls for cls in F.classes() if cls[0] in L.delta]
    built = []
    monkeypatch.setattr(locality, "local_p_core",
                        lambda L, P: built.append(L.mask_of(P))
                        or local_p_core(L, P))
    assert is_linking_locality(L) == linking_per_object(L)
    assert len(classes) < len(L.delta)
    assert built == [fully_normalized_conjugate(F, cls[0])
                     for cls in classes]
    assert all(_fully_normalized(F, d) for d in built)
    assert not all(_fully_normalized(F, cls[0]) for cls in classes)


def _locality(degree, gens, p, min_order):
    G = FiniteGroup(degree, [from_cycles(degree, *g) for g in gens])
    S = sylow_subgroup(G, p)
    return locality_from_group(G, S, delta_min_order(S, min_order), p)


S6_GENS = [[(1, 2, 3, 4, 5, 6)], [(1, 2)]]
SYLOW_LOCALITIES = {
    "S6:p=2:delta>=4": (6, S6_GENS, 2, 4),
    "S6:p=2:delta=all": (6, S6_GENS, 2, 1),
    "S6:p=3:delta=all": (6, S6_GENS, 3, 1),
    "S4xS4:p=2:delta>=4": (8, [[(1, 2, 3, 4)], [(1, 2)], [(5, 6, 7, 8)],
                               [(5, 6)]], 2, 4),
    "S7:p=2:delta>=4": (7, [[(1, 2, 3, 4, 5, 6, 7)], [(1, 2)]], 2, 4),
}


def _product_localities(dname):
    ctx = Instance(load_descriptor(dname))
    return list({id(L): L for L in (
        ctx.product(name)["L"] for name in ctx.d["fusion_products"])
    }.values())


@pytest.mark.parametrize("source", [*SYLOW_LOCALITIES, "product-24",
                                    "product-48"])
def test_fully_normalized_objects_have_sylow_normalizers_in_s(source):
    """At every fully normalized object P, N_S(P) = S ∩ N_L(P) is a Sylow
    subgroup of N_L(P), by ``sylow_subgroup`` on N_L(P) built as a
    permutation group: the fact that lets ``local_p_core`` take it as it
    is.  Other objects fall short, except on S6 at p = 3; and the
    certificate gives the per-object verdict and report."""
    localities = ([_locality(*SYLOW_LOCALITIES[source])]
                  if source in SYLOW_LOCALITIES
                  else _product_localities(source))
    for L in localities:
        F = fusion_of_locality(L)
        idx = F.index
        short = 0
        for d in sorted(L.delta):
            ns = idx.normalizer(d).bit_count()
            if _fully_normalized(F, d):
                H, _ = local_group(L, L.ids_of(d))
                assert ns == len(sylow_subgroup(H, L.p))
            else:
                short += ns < _p_part(len(normalizer_carrier(
                    L, L.ids_of(d))), L.p)
        assert short or source == "S6:p=3:delta=all"
        if source in SYLOW_LOCALITIES:
            assert is_linking_locality(L) == linking_per_object(L)


@pytest.mark.parametrize("min_order", [1, 4])
def test_linking_certificate_builds_no_group_for_n_l_p(min_order,
                                                        monkeypatch):
    """The only permutation groups the certificate builds are the
    Aut_F(P) of the centric-radical test: none for any N_L(P)."""
    L = _s6_locality(min_order)
    F = fusion_of_locality(L)
    is_saturated(F)
    built = []
    init = FiniteGroup.__init__
    monkeypatch.setattr(FiniteGroup, "__init__", lambda self, *args, **kw:
                        built.append(args[0]) or init(self, *args, **kw))
    assert centric_radicals(F) is centric_radicals(F)
    assert built  # the Aut_F(P), once: the radicals are kept on F
    built.clear()
    is_linking_locality(L)
    assert built == []


def _p_core_as_ids(L, P):
    H, to_perm = local_group(L, P)
    of_perm = {x: i for i, x in to_perm.items()}
    return frozenset(of_perm[x] for x in p_core(H, L.p).elements)


@pytest.mark.parametrize("source", ["product-24", "product-48", "S6"])
def test_table_p_core_matches_permutation_group(source):
    """On every fully normalized object of the localities of the
    descriptor's products, and of S6 at p = 2, delta = order >= 4 (where
    the S ∩ N_L(P) of some other objects are short of Sylow),
    O_p(N_L(P)) read off the rows is the p-core of N_L(P) built as a
    permutation group."""
    localities = ([_s6_locality(4)] if source == "S6"
                  else _product_localities(source))
    for L in localities:
        F = fusion_of_locality(L)
        for d in sorted(L.delta):
            if not _fully_normalized(F, d):
                continue
            P = L.ids_of(d)
            ids, core = local_p_core(L, P)
            assert ids == normalizer_carrier(L, P)
            assert core == _p_core_as_ids(L, P)


@pytest.mark.parametrize("gens", [
    # S3 wr C2: the swap fuses <(1 2)> and <(4 5)>
    [[(1, 2)], [(1, 2, 3)], [(1, 4), (2, 5), (3, 6)]],
    # S3 x S3
    [[(1, 2)], [(1, 2, 3)], [(4, 5)], [(4, 5, 6)]],
], ids=["S3wrC2", "S3xS3"])
def test_linking_certificate_names_the_per_object_witness(gens):
    """Delta = order >= 2 holds <(1 2)>, whose N_L(P) = <(1 2)> x Sym{4,5,6}
    is not of characteristic 2: the per-class certificate fails with the
    per-object verdict, report and witness."""
    G = FiniteGroup(6, [from_cycles(6, *g) for g in gens])
    S = sylow_subgroup(G, 2)
    L = locality_from_group(G, S, delta_min_order(S, 2), 2)
    ok, rep = is_linking_locality(L)
    assert (ok, rep) == linking_per_object(L)
    assert not ok
    assert rep["witness"] == "N_L(P) of order 12 is not of characteristic 2"


# -- the coset-wise product rows against the pair-wise build ---------------

@pytest.mark.parametrize("name", BUNDLED)
def test_rows_match_pair_oracle_on_bundled(name):
    d = load_descriptor(name)
    ctx = Instance(d)
    L = build_locality(d, ctx)
    assert locality_tables(L) == \
        locality_tables_by_pairs(ctx.G, ctx.S, delta_of(d, ctx.G, ctx.S))


ROW_GROUPS = {
    "S4": [[(1, 2, 3, 4)], [(1, 2)]],
    "S3wrC2": [[(1, 2)], [(1, 2, 3)], [(1, 4), (2, 5), (3, 6)]],
    "S6": [[(1, 2, 3, 4, 5, 6)], [(1, 2)]],
    "S7": [[(1, 2, 3, 4, 5, 6, 7)], [(1, 2)]],
}


@pytest.mark.parametrize("name,min_order", [
    ("S4", 2), ("S3wrC2", 2), ("S6", 4), ("S6", 8), ("S7", 4)])
def test_rows_match_pair_oracle(name, min_order):
    """Labels, inverses, S and every row of L_delta(G), Delta = order >=
    ``min_order`` at p = 2, equal the pair-wise build."""
    gens = ROW_GROUPS[name]
    degree = max(max(c) for g in gens for c in g)
    G = FiniteGroup(degree, [from_cycles(degree, *g) for g in gens])
    S = sylow_subgroup(G, 2)
    delta = delta_min_order(S, min_order)
    L = locality_from_group(G, S, delta, 2)
    assert locality_tables(L) == locality_tables_by_pairs(G, S, delta)


def test_descriptor_roundtrip(loc_a):
    d = locality_to_descriptor(loc_a)
    back = locality_from_descriptor(d)
    assert back.n == loc_a.n
    assert back.prod == {(i, j): k
                         for (i, j), k in loc_a.prod.items()}
    rep = validate_locality(back, max_word_length=3)
    assert rep.ok


def test_delta_min_order_members(s4, s4_sylow):
    delta = delta_min_order(s4_sylow, 4)
    assert sorted(P.order for P in delta) == [4, 4, 4, 8]


# -- the one Delta-closure check, from each caller --------------------------

def test_validator_reports_missing_overgroup(s4, s4_sylow):
    L = locality_from_group(s4, s4_sylow, delta_min_order(s4_sylow, 2), 2)
    d = locality_to_descriptor(L)
    d["delta"].remove(next(m for m in d["delta"] if len(m) == 4))
    rep = validate_locality(locality_from_descriptor(d), max_word_length=3)
    check = next(c for c in rep.checks if c.name == "delta_closure")
    assert not check.passed
    assert check.witness == \
        "delta is not overgroup-closed: missing overgroup of order 4"


def test_restriction_rejects_non_overgroup_closed_delta(loc_b):
    small = [m for m in loc_b.delta if m.bit_count() == 4]
    with pytest.raises(LocalityError, match="overgroup-closed"):
        restriction(loc_b, [loc_b.ids_of(small[0])])


def test_constructor_rejects_delta_id_outside_s(loc_a):
    d = locality_to_descriptor(loc_a)
    outside = next(f for f in range(loc_a.n) if f not in loc_a.s_ids)
    d["delta"].append(sorted(d["S"][:1] + [outside]))
    with pytest.raises(LocalityError, match="not a subgroup of S"):
        locality_from_descriptor(d)


# -- ids the rows cannot hold ----------------------------------------------------

@pytest.mark.parametrize("entry", ["undefined", "past_end", "row_past_end"])
def test_constructor_rejects_product_id_outside_carrier(loc_a, entry):
    """-1 would read as undefined and n as the trailing -1 of a row."""
    d = locality_to_descriptor(loc_a)
    n = d["carrier"]
    i, j, k = d["products"][5]
    bad = {"undefined": [i, j, -1], "past_end": [i, j, n],
           "row_past_end": [n, j, k]}[entry]
    d["products"][5] = bad
    with pytest.raises(LocalityError,
                       match=rf"product entry \[{bad[0]}, {bad[1]}, {bad[2]}\]"):
        locality_from_descriptor(d)


@pytest.mark.parametrize("field,value,message", [
    ("inverse", -2, "inverse table entry 3 holds -2"),
    ("inverse", 24, "inverse table entry 3 holds 24"),
    ("S", -1, "S entry 0 holds -1"),
    ("S", 24, "S entry 0 holds 24"),
])
def test_constructor_rejects_table_id_outside_carrier(loc_a, field, value,
                                                      message):
    d = locality_to_descriptor(loc_a)
    d[field] = list(d[field])
    d[field][3 if field == "inverse" else 0] = value
    with pytest.raises(LocalityError, match=message):
        locality_from_descriptor(d)


@pytest.mark.parametrize("change,message", [
    ("minus_two", r"product row 2 entry 5 holds -2, not an id in range\(24\)"),
    ("past_end", r"product row 2 entry 5 holds 24, not an id in range\(24\)"),
    ("short_row", "product row 2 has 23 entries for 24 ids"),
    ("missing_row", "product table has 23 rows for 24 ids"),
])
def test_constructor_rejects_rows_outside_carrier(loc_a, change, message):
    """Rows given directly are checked too: -2 would read row n - 1, n
    the all -1 row, and a short row would move its trailing -1 into a
    column."""
    assert loc_a.n == 24
    rows = [list(r[:-1]) for r in loc_a.rows[:-1]]
    if change == "minus_two":
        rows[2][5] = -2
    elif change == "past_end":
        rows[2][5] = 24
    elif change == "short_row":
        del rows[2][-1]
    else:
        del rows[-1]
    with pytest.raises(LocalityError, match=message):
        Locality(loc_a.labels, loc_a.identity, loc_a.inv, rows, loc_a.s_ids,
                 loc_a.p, [loc_a.ids_of(d) for d in loc_a.delta])


def test_product_view_reads_the_rows(loc_b):
    """``prod`` is a pair-keyed view of the rows, with one entry per
    defined pair."""
    pairs = {(i, j): k for i, row in enumerate(loc_b.rows[:-1])
             for j, k in enumerate(row) if k >= 0}
    assert dict(loc_b.prod) == pairs
    assert len(loc_b.prod) == len(pairs)
    assert (loc_b.n, 0) not in loc_b.prod and (0, -1) not in loc_b.prod
    assert loc_b.rows[-1] == (-1,) * (loc_b.n + 1)
    assert all(row[-1] == -1 for row in loc_b.rows)


# -- S_w as a mask against the element-wise definition ------------------------

def _element_wise_s_w(L, S, w):
    """Conjugate S through the labels of w in the ambient group, keeping
    the elements whose conjugates stay in S at every step."""
    cur = {s: s for s in S.elements}
    for f in w:
        g = L.labels[f]
        cur = {s: conjugate(x, g) for s, x in cur.items()
               if conjugate(x, g) in S.eset}
    return frozenset(cur)


def _check_s_w_oracle(L, S, dsets, max_len):
    seen = set()
    for k in range(max_len + 1):
        for w in itertools.product(range(L.n), repeat=k):
            s_w = _element_wise_s_w(L, S, w)
            assert L.label_set(s_of_word(L, w)) == s_w, w
            assert in_domain(L, w) == (s_w in dsets), w
            seen.add(s_w in dsets)
    return seen


@pytest.mark.parametrize("name,max_len", [("instance-a", 3),
                                          ("instance-b", 2)])
def test_s_w_matches_element_wise(name, max_len):
    from locfusion import instances as inst
    d = inst.load_descriptor(name)
    L = inst.build_locality(d)
    G = L.realization
    S = inst.sylow_of(d, G)
    dsets = {P.eset for P in inst.delta_of(d, G, S)}
    # every word this short is in the domain of both bundled localities
    assert _check_s_w_oracle(L, S, dsets, max_len) == {True}


def test_s_w_matches_element_wise_on_partial_domain():
    s6 = FiniteGroup(6, [from_cycles(6, (1, 2, 3, 4, 5, 6)),
                         from_cycles(6, (1, 2))])
    s = sylow_subgroup(s6, 2)
    delta = delta_min_order(s, 8)
    L = locality_from_group(s6, s, delta, 2)
    dsets = {P.eset for P in delta}
    assert _check_s_w_oracle(L, s, dsets, 2) == {True, False}


# -- the preimage walk against the composite-map definition of S_w ------------

def _composite_s_w(L, w):
    """S_w as the domain of the partial maps of w composed on positions."""
    m = tuple(range(len(L.s_ids))) + (-1,)
    for f in w:
        m = tuple(L._pm[f][i] for i in m)
    return sum(1 << i for i, v in enumerate(m[:-1]) if v >= 0)


def _check_walk_against_composite(L, max_len):
    seen = set()
    for k in range(max_len + 1):
        for w in itertools.product(range(L.n), repeat=k):
            s_w = _composite_s_w(L, w)
            assert L.s_mask(w) == s_w, w
            seen.add(s_w in L.delta)
    return seen


def test_s_mask_walk_matches_composite_on_instance_a(loc_a):
    assert _check_walk_against_composite(loc_a, 3) == {True}


def test_s_mask_walk_matches_composite_on_partial_domain():
    s6 = FiniteGroup(6, [from_cycles(6, (1, 2, 3, 4, 5, 6)),
                         from_cycles(6, (1, 2))])
    s = sylow_subgroup(s6, 2)
    L = locality_from_group(s6, s, delta_min_order(s, 8), 2)
    assert _check_walk_against_composite(L, 2) == {True, False}


def _rows_mutually_inverse(L):
    return all(L._pm[L.inv[f]][v] == i
               for f in range(L.n) for i, v in enumerate(L._pm[f][:-1])
               if v >= 0)


def test_s_mask_walk_matches_composite_on_corrupted_table(loc_b):
    """The walk is a set identity, so it agrees with the composite-map
    definition also on tables that break the locality axioms."""
    assert _rows_mutually_inverse(loc_b)
    d = locality_to_descriptor(loc_b)
    sset = set(d["S"])
    for idx, (i, j, k) in enumerate(d["products"]):
        if i in sset or j not in sset:
            continue
        # (f^-1, s) with f outside S: its value feeds the row of f
        bad = dict(d, products=list(d["products"]))
        bad["products"][idx] = [i, j, next(x for x in sorted(sset) if x != k)]
        L = locality_from_descriptor(bad)
        if not _rows_mutually_inverse(L):
            break
    else:
        pytest.fail("no corruption broke the inverse rows")
    assert not validate_locality(L, max_word_length=2).ok
    _check_walk_against_composite(L, 3)


# -- the validator is total on corrupted tables --------------------------------

def test_validator_reports_every_corrupted_product_entry(loc_b):
    """200 corruptions of one product entry each of instance-b, taken as
    an abstract descriptor: every one gives a report, none raises.  When
    the S-table is not a group table, the S-lattice is not built and
    ``delta_closure`` fails with the ``s_subgroup`` witness.  (Which
    corruptions still pass at length 3 is pinned by
    ``test_validator_rejects_what_brute_force_rejects``.)"""
    d = locality_to_descriptor(loc_b)
    rng = random.Random(1)
    s_faults = []
    for _ in range(200):
        i = rng.randrange(len(d["products"]))
        a, b, old = d["products"][i]
        new = rng.choice([x for x in range(d["carrier"]) if x != old])
        bad = dict(d, products=list(d["products"]))
        bad["products"][i] = [a, b, new]
        rep = validate_locality(locality_from_descriptor(bad),
                                max_word_length=3)
        checks = {c.name: c for c in rep.checks}
        if not checks["s_subgroup"].passed:
            s_faults.append(checks["s_subgroup"].witness.split(" at ")[0])
            assert not checks["delta_closure"].passed
            assert checks["s_subgroup"].witness in \
                checks["delta_closure"].witness
    assert len(s_faults) == 21
    assert set(s_faults) == {"S not product-closed",
                             "identity law fails in S",
                             "product on S not associative"}


# -- the explorer and the validator against the tuple-composing oracle --------

def _oracle_extends_in_delta(L, m, reps):
    """For each mask d of ``reps`` (d -> a map with domain d): is the
    domain of m followed by ``reps[d]``, composed as tuples, in delta?"""
    return {d: domain_mask(tuple(map(r.__getitem__, m))) in L.delta
            for d, r in reps.items()}


def _oracle_word_states(L, max_len, letters=None):
    """The explorer with one composed map per state and letter."""
    letters = range(L.n) if letters is None else sorted(letters)
    inside = set(letters)
    pm, sf = L._pm, L._sf
    reps = {sf[f]: pm[f] for f in letters}
    states, failures, frontier = {}, [], {}
    for f in letters:
        st = (f, pm[f])
        if st not in states:
            states[st] = (1, (f,))
            frontier[st] = (f,)
    length = 1
    while frontier and length < max_len:
        length += 1
        new = {}
        for (pi, m), word in frontier.items():
            ok = _oracle_extends_in_delta(L, m, reps)
            for f in letters:
                if not ok[sf[f]]:
                    continue
                m2 = tuple(map(pm[f].__getitem__, m))
                pi2 = L.prod.get((pi, f))
                if pi2 is None or pi2 not in inside:
                    failures.append(word + (f,))
                    continue
                st = (pi2, m2)
                if st not in states:
                    states[st] = (length, word + (f,))
                    new[st] = word + (f,)
        frontier = new
    return states, failures


def _oracle_checks(L, max_len):
    """objectivity_len2, fold_defined_on_domain and the split check over
    all pairs of states, each with composed maps; name -> (passed,
    witness)."""
    out = {}
    ok, wit = True, None
    reps = {L._sf[g]: L._pm[g] for g in range(L.n)}
    for f in range(L.n):
        in_delta = _oracle_extends_in_delta(L, L._pm[f], reps)
        for g in range(L.n):
            defined, obj = (f, g) in L.prod, in_delta[L._sf[g]]
            if defined != obj:
                ok, wit = False, (f"pair ({f},{g}): defined={defined}, "
                                  f"S_w in delta={obj}")
                break
        if not ok:
            break
    out["objectivity_len2"] = (ok, wit)
    states, failures = _oracle_word_states(L, max_len)
    out["fold_defined_on_domain"] = (
        not failures, f"word {failures[0]!r}" if failures else None)
    ok, wit = True, None
    items = [(p, domain_mask(m), m, v) for (p, m), v in states.items()]
    reps = {d: m for _, d, m, _ in items}
    for p1, _, m1, (l1, w1) in items:
        in_delta = _oracle_extends_in_delta(L, m1, reps)
        for p2, d2, _, (l2, w2) in items:
            if l1 + l2 > max_len or not in_delta[d2]:
                continue
            pi, q = L.prod.get((p1, p2)), p1
            for f in w2:
                q = L.prod.get((q, f))
                if q is None:
                    break
            if pi is None or q is None or pi != q:
                ok, wit = False, f"split {w1!r}|{w2!r}: fold != Pi(u)Pi(v)"
                break
        if not ok:
            break
    out["associativity_by_splitting"] = (ok, wit)
    return out


def _assert_matches_oracle(L, max_len):
    states, failures = _word_states(L, max_len)
    want_states, want_failures = _oracle_word_states(L, max_len)
    assert list(states.items()) == list(want_states.items())
    assert failures == want_failures
    got = validate_locality(L, max_word_length=max_len).to_json()
    want = _oracle_checks(L, max_len)
    for c in got["checks"]:
        if c["name"] in want:
            assert (c["passed"], c.get("witness")) == want[c["name"]], \
                c["name"]
    assert want.keys() <= {c["name"] for c in got["checks"]}


@pytest.mark.parametrize("name", ["instance-a", "instance-b", "product-24",
                                  "product-48", "group-8", "group-60"])
def test_explorer_matches_oracle_on_bundled(name):
    from locfusion import instances as inst
    L = inst.build_locality(inst.load_descriptor(name))
    for max_len in (2, 3, 4):
        _assert_matches_oracle(L, max_len)


def test_explorer_matches_oracle_on_s6():
    from pathlib import Path
    from locfusion import instances as inst
    path = Path(__file__).resolve().parents[1] / "perfbench/instances/s6.json"
    _assert_matches_oracle(inst.build_locality(
        inst.load_descriptor(str(path))), 4)


def _corruptions(L, seed, count=200):
    """``count`` descriptors of L, each with one product entry changed."""
    d = locality_to_descriptor(L)
    rng = random.Random(seed)
    for _ in range(count):
        i = rng.randrange(len(d["products"]))
        a, b, old = d["products"][i]
        new = rng.choice([x for x in range(d["carrier"]) if x != old])
        bad = dict(d, products=list(d["products"]))
        bad["products"][i] = [a, b, new]
        yield locality_from_descriptor(bad)


@pytest.mark.parametrize("fixture,seed", [("loc_b", 1), ("loc_a", 7)])
def test_explorer_matches_oracle_on_corruptions(fixture, seed, request):
    """The preimage walk is a set identity and the getter composes the
    same maps, so states, failures and reports agree with the oracle
    also on tables that break the axioms."""
    for L in _corruptions(request.getfixturevalue(fixture), seed):
        for max_len in (2, 3, 4):
            _assert_matches_oracle(L, max_len)


def _assert_walk_matches_oracle(L, max_len, letters):
    states, failures = _word_states(L, max_len, letters)
    want_states, want_failures = _oracle_word_states(L, max_len, letters)
    assert list(states.items()) == list(want_states.items())
    assert failures == want_failures
    return failures


@pytest.mark.parametrize("fixture,seed", [("loc_b", 1), ("loc_a", 7)])
def test_explorer_matches_oracle_on_corruptions_over_letter_subsets(
        fixture, seed, request):
    """Over a random subset of the letters of each corrupted table, folds
    that leave the letters are failures, so blocks hold failures and new
    states side by side; states (in order) and failures still agree with
    the oracle."""
    rng = random.Random(seed)
    failed = 0
    for L in _corruptions(request.getfixturevalue(fixture), seed):
        X = rng.sample(range(L.n), rng.randrange(1, L.n + 1))
        for max_len in (2, 3, 4):
            failed += bool(_assert_walk_matches_oracle(L, max_len, X))
    assert 0 < failed < 600


def _oracle_blocks(L, max_len, letters, states):
    """For each representative word the walk extends (shorter than
    ``max_len``): the letters it extends by, in blocks by the composite
    map they lead to (composed as tuples, blocks ordered by their first
    letter), each letter with what it reaches: "new" when the word it
    makes names its state, "failure" when its fold is undefined or
    leaves the letters, and "known" otherwise."""
    letters = sorted(letters)
    reps = {L._sf[f]: L._pm[f] for f in letters}
    out = {}
    for (pi, m), (length, word) in states.items():
        if length >= max_len:
            continue
        ok = _oracle_extends_in_delta(L, m, reps)
        blocks = {}
        for f in letters:
            if not ok[L._sf[f]]:
                continue
            m2 = tuple(map(L._pm[f].__getitem__, m))
            pi2 = L.prod.get((pi, f))
            if pi2 not in letters:
                what = "failure"
            elif states[pi2, m2] == (length + 1, word + (f,)):
                what = "new"
            else:
                what = "known"
            blocks.setdefault(m2, []).append((f, what))
        out[word] = list(blocks.values())
    return out


@pytest.mark.parametrize("letters,word,blocks", [
    # the block {0, 7} names its new state by 7, its second letter, and
    # the new states of two blocks interleave: 5, then 7, then 9
    ((0, 1, 5, 7, 9), (1, 1), [[(0, "known"), (7, "new")], [(1, "known")],
                               [(5, "new"), (9, "new")]]),
    # the failures of two blocks interleave: 1, then 2, then 6
    ((1, 2, 6), (1,), [[(1, "failure"), (6, "failure")],
                       [(2, "failure")]]),
])
def test_explorer_merges_blocks_in_letter_order(letters, word, blocks, loc_b):
    """Where a state's blocks hold new states or failures, the walk takes
    their letters in letter order across blocks, as the oracle does."""
    states = _oracle_word_states(loc_b, 3, letters)[0]
    assert _oracle_blocks(loc_b, 3, letters, states)[word] == blocks
    _assert_walk_matches_oracle(loc_b, 3, letters)


@pytest.mark.parametrize("fixture,seed", [("loc_b", 1), ("loc_a", 7)])
def test_s_w_through_product_matches_element_wise_on_corruptions(
        fixture, seed, request):
    """The check reads each composite map's domain with one getter; it
    names the same first state, in state order, as a compare at each
    position of each state's composite map."""
    seen = set()
    for L in _corruptions(request.getfixturevalue(fixture), seed):
        want = (True, None)
        for (pi, m), (_, word) in _oracle_word_states(L, 3)[0].items():
            if any(v >= 0 and L._pm[pi][i] != v for i, v in enumerate(m)):
                want = (False, f"word {word!r}: S_w image differs from "
                               "S_w^(Pi w)")
                break
        got = next(c for c in validate_locality(L, max_word_length=3).checks
                   if c.name == "s_w_through_product")
        assert (got.passed, got.witness) == want
        seen.add(got.passed)
    assert seen == {True, False}


def test_partial_subgroup_witness_matches_oracle(loc_b):
    from locfusion.partial_subgroups import partial_subgroup_witness
    s6 = FiniteGroup(6, [from_cycles(6, (1, 2, 3, 4, 5, 6)),
                         from_cycles(6, (1, 2))])
    s = sylow_subgroup(s6, 2)
    partial = locality_from_group(s6, s, delta_min_order(s, 8), 2)
    rng = random.Random(3)
    seen = set()
    for L in (loc_b, partial):
        for _ in range(60):
            X = {L.identity}
            for f in rng.sample(range(L.n), rng.randrange(1, 8)):
                X |= {f, L.inv[f]}
            failures = _oracle_word_states(L, 4, X)[1]
            want = {"word": list(failures[0])} if failures else None
            assert partial_subgroup_witness(L, X) == want
            seen.add(want is None)
    assert seen == {True, False}


# -- the brute-force associativity oracle -----------------------------------------

def _pair_fold(L, w):
    """Left fold through the pair-keyed view; None when a step is
    undefined."""
    x = L.identity
    for f in w:
        x = L.prod.get((x, f))
        if x is None:
            return None
    return x


def _brute_force_split_fault(L, max_len):
    """The first domain word up to ``max_len`` (by length, then letters)
    whose fold is undefined or differs from Pi(u)Pi(v) in some split
    u|v; None when there is none.  Every word is folded in every split,
    with S_w the domain of the composite map along w."""
    for k in range(1, max_len + 1):
        for w in itertools.product(range(L.n), repeat=k):
            if _composite_s_w(L, w) not in L.delta:
                continue
            x = _pair_fold(L, w)
            if x is None:
                return w
            for i in range(1, k):
                u, v = _pair_fold(L, w[:i]), _pair_fold(L, w[i:])
                if u is None or v is None or L.prod.get((u, v)) != x:
                    return w
    return None


@pytest.mark.parametrize("name", ["instance-a", "instance-b"])
def test_brute_force_oracle_accepts_bundled(name):
    from locfusion import instances as inst
    L = inst.build_locality(inst.load_descriptor(name))
    assert _brute_force_split_fault(L, 3) is None


# Draws of ``_corruptions(loc_b, 1)`` that the validator passes at length 3
# and the oracle rejects: the split check follows one representative word
# per right state, so an entry reached only through other words of the
# same state is never compared.
FALSE_PASSES = (19, 21, 30, 104, 148, 149, 158, 173)


@pytest.fixture(scope="module")
def corrupted_b(loc_b):
    return list(_corruptions(loc_b, 1))


@pytest.mark.parametrize("draw", [
    pytest.param(k, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="ROADMAP item 1"))
    if k in FALSE_PASSES else k for k in range(200)])
def test_validator_rejects_what_brute_force_rejects(draw, corrupted_b):
    """A table the validator passes at length 3 passes the oracle."""
    L = corrupted_b[draw]
    if validate_locality(L, max_word_length=3).ok:
        assert _brute_force_split_fault(L, 3) is None


# -- the split check against its column-fold reference, and each check firing -

BENCH_INSTANCES = Path(__file__).resolve().parents[1] / "perfbench" / \
    "instances"


@pytest.fixture(scope="module")
def loc_s6():
    return build_locality(load_descriptor(str(BENCH_INSTANCES / "s6.json")))


def _split_matches_reference(L, max_len):
    """The split check's witness, or None, after checking that
    ``ref_split_fault`` gives the same on the same states."""
    states = _word_states(L, max_len)[0]
    want = ref_split_fault(L, states, max_len)
    fits = locality._class_reads(L)[1]
    assert locality._split_fault(L, states, max_len, fits) == want
    return want


def _undefinitions(L, seed, count):
    """``count`` descriptors of L, each with one product entry dropped."""
    d = locality_to_descriptor(L)
    rng = random.Random(seed)
    for _ in range(count):
        products = list(d["products"])
        del products[rng.randrange(len(products))]
        yield locality_from_descriptor(dict(d, products=products))


def test_split_check_matches_column_fold_reference(loc_s6, loc_b):
    """The split check, run a group of left states at a time with each
    right state folded along its parent's representative, and with the
    reads of length-1 right states skipped where objectivity shows them
    defined, names the same first split, or None, as the column fold of
    every admitted representative word: on the six bundled localities at
    lengths 2 to 5, on the S6 benchmark locality at 2 to 4 and S7 at 3,
    and on 60 one-entry corruptions of S6 at 3 and 4, where rows that do
    not fit their class are read.  The right states of S6 have
    representatives of several prefixes, where those of instance-a and
    instance-b share one, so only these corruptions fold along a second
    prefix."""
    for name in BUNDLED:
        L = build_locality(load_descriptor(name))
        for max_len in (2, 3, 4, 5):
            assert _split_matches_reference(L, max_len) is None
    for max_len in (2, 3, 4):
        assert _split_matches_reference(loc_s6, max_len) is None
    prefixes = {w[:-1] for _, w in _word_states(loc_s6, 4)[0].values()}
    assert len(prefixes) > 2
    s7 = build_locality(load_descriptor(str(BENCH_INSTANCES / "s7.json")))
    assert _split_matches_reference(s7, 3) is None
    del s7
    seen = set()
    for L in _corruptions(loc_s6, 5, count=60):
        for max_len in (3, 4):
            seen.add(_split_matches_reference(L, max_len) is None)
    assert seen == {True, False}
    # an entry of instance-b made undefined: its row no longer fits its
    # class, so the row is read at the length-1 right states even for a
    # left state of length 1, and that read alone finds u = (f), v = (g)
    pairs = 0
    for L in _undefinitions(loc_b, 3, count=20):
        wit = _split_matches_reference(L, 3)
        pairs += wit is not None and wit.split(":")[0].count(",)") == 2
    assert pairs > 0


def test_split_check_reads_longer_left_states_of_fitting_rows(loc_s6):
    """The read of the length-1 right states is skipped for a row that
    fits its class only when the left state has length 1, whose map is
    the class's.  A longer left state's map may admit more: here the
    length-2 state of the S6 benchmark locality named by (4, 12) is given
    another composite map of the same domain, so that as a right state it
    is admitted as before, but as a left state it admits some S_g that
    the class of its fold value does not.  Its row fits that class, so
    it is undefined at g."""
    L = loc_s6
    states = _word_states(L, 3)[0]
    (p1, m), _ = next(item for item in states.items()
                      if item[1][1] == (4, 12))

    def admitted(m):
        return {d for d in set(L._sf)
                if locality._preimage_under(m, d) in L.delta}
    more = next(m2 for _, m2 in states
                if domain_mask(m2) == domain_mask(m)
                and (p1, m2) not in states
                and admitted(m2) - admitted(L._cmaps[L._cls[p1]]))
    forged = {((p1, more) if key == (p1, m) else key): v
              for key, v in states.items()}
    fits = locality._class_reads(L)[1]
    assert fits[p1]
    want = ref_split_fault(L, forged, 3)
    assert want.startswith("split (4, 12)|(")
    assert locality._split_fault(L, forged, 3, fits) == want


# (check, draw of ``_corruptions(loc_b, 1)``, witness): the first draw
# whose first failing check at length 3 is that check.
# ``fold_defined_on_domain`` comes first on none of these 200 draws; it
# does on draw 1 of ``_corruptions`` of the S6 benchmark locality, seed 5.
FIRST_FAULTS = [
    ("s_subgroup", 2, "identity law fails in S at 5"),
    ("identity_and_inversion", 5, "identity law fails at 4"),
    ("s_f_in_delta", 12, "element 1"),
    ("objectivity_len2", 1, "pair (2,1): defined=True, S_w in delta=False"),
    ("delta_closure", 36, "delta is not closed under conjugation maps into S"),
    ("s_w_through_product", 0,
     "word (5, 17): S_w image differs from S_w^(Pi w)"),
    # a two-letter right word, folded along its one-letter prefix
    ("associativity_by_splitting", 15,
     "split (22,)|(1, 6): fold != Pi(u)Pi(v)"),
]


def _first_failure(L, max_len):
    rep = validate_locality(L, max_word_length=max_len)
    return next((c.name, c.witness) for c in rep.checks if not c.passed)


@pytest.mark.parametrize("check,draw,witness", FIRST_FAULTS,
                         ids=[c for c, _, _ in FIRST_FAULTS])
def test_each_check_fires_first_on_a_corrupted_table(check, draw, witness,
                                                     corrupted_b):
    """The draw fails the check, with its witness, and passes every check
    that runs before it."""
    assert _first_failure(corrupted_b[draw], 3) == (check, witness)


def test_fold_check_fires_first_on_a_corrupted_s6_table(loc_s6):
    """A word of three letters whose fold is undefined, on a table that
    passes every check before ``fold_defined_on_domain``."""
    L = next(itertools.islice(_corruptions(loc_s6, 5, count=2), 1, None))
    assert _first_failure(L, 3) == ("fold_defined_on_domain",
                                    "word (97, 116, 4)")


# -- the class index, and the class-keyed paths on corrupted tables ----------

@pytest.mark.parametrize("name,n,classes", [
    ("instance-b", 24, 8), ("perfbench/instances/s6.json", 208, 20),
    ("perfbench/instances/s7.json", 560, 44)])
def test_class_index(name, n, classes):
    """``_cls[f]`` numbers the distinct partial maps in the order they
    first appear, and each class holds the map of its elements."""
    from pathlib import Path
    from locfusion import instances as inst
    if name.startswith("perfbench"):
        name = str(Path(__file__).resolve().parents[1] / name)
    L = inst.build_locality(inst.load_descriptor(name))
    assert (L.n, len(L._cmaps)) == (n, classes)
    pm = L._build_partial_maps()
    assert [L._cmaps[c] for c in L._cls] == list(pm)
    assert list(dict.fromkeys(L._cls)) == list(range(classes))
    assert list(L._sf) == [domain_mask(m) for m in pm]


def _element_wise_normal_witness(L, N, ambient):
    """The first (f, n) with (f^-1, n, f) in D and n^f outside N, with
    S_w from the maps of the word composed as tuples, and n^f its fold."""
    N = set(N)
    return next(((f, n) for f in sorted(ambient) for n in sorted(N)
                 if _composite_s_w(L, (L.inv[f], n, f)) in L.delta
                 and L.fold((L.inv[f], n, f)) not in N), None)


def test_class_keyed_paths_match_element_wise_on_corruptions(corrupted_b,
                                                             loc_b):
    """On each of the 200 corruptions of instance-b: partial normality
    (first witness), the conjugates, the normalizer carrier and the
    explorer over a subset of the carrier agree with element-wise
    oracles.  (The explorer over the whole carrier and the validator are
    compared with theirs on the same draws by
    ``test_explorer_matches_oracle_on_corruptions``.)  In 167 draws the
    corrupted row shares its class with rows that are not corrupted, so
    a class-keyed answer is read for rows that differ, and in 85 the
    corruption changes the partition into classes."""
    from locfusion.instances import (load_descriptor, named_subgroup,
                                     resolve_ids)
    from locfusion.partial_subgroups import (_conjugates,
                                             partial_normal_witness)
    alt = resolve_ids(loc_b, named_subgroup(
        load_descriptor("instance-b"), loc_b.realization, "alt"))
    rng = random.Random(2)
    whole = range(loc_b.n)
    shared = repartitioned = 0
    seen = set()
    for L in corrupted_b:
        i = next(i for i in whole if L.rows[i] != loc_b.rows[i])
        shared += L._cls.count(L._cls[i]) > 1
        repartitioned += L._cls != loc_b._cls
        amb = sorted(rng.sample(whole, 12))
        for N in (alt, frozenset(L.s_ids),
                  frozenset(rng.sample(whole, 8)) | {L.identity}):
            for ambient in (None, amb):
                want = _element_wise_normal_witness(
                    L, N, whole if ambient is None else ambient)
                assert partial_normal_witness(L, N, ambient) == want
                seen.add(want is None)
        for f, xs, zs in _conjugates(L, whole, whole):
            fi = L.inv[f]
            want = {x: L.fold((fi, x, f)) for x in whole
                    if _composite_s_w(L, (fi, x, f)) in L.delta}
            assert xs == sorted(want)
            assert zs == [-1 if z is None else z for z in want.values()]
        pm = L._build_partial_maps()
        tpos = {L._s_pos[t] for t in alt & set(L.s_ids)}
        assert normalizer_carrier(L, alt & set(L.s_ids)) == [
            f for f in whole if {pm[f][i] for i in tpos} == tpos]
        states, failures = _word_states(L, 3, alt)
        want_states, want_failures = _oracle_word_states(L, 3, alt)
        assert list(states.items()) == list(want_states.items())
        assert failures == want_failures
    assert seen == {True, False}
    assert (shared, repartitioned) == (167, 85)


# -- row-wise checks against their pair-keyed references ------------------------

def _pair_keyed_s_group_fault(L):
    """``_s_group_fault`` one pair and one triple at a time."""
    sset, prod, e = set(L.s_ids), L.prod, L.identity
    if e not in sset:
        return "identity not in S"
    for a, b in itertools.product(L.s_ids, repeat=2):
        if prod.get((a, b)) not in sset:
            return f"S not product-closed at ({a},{b})"
    for a in L.s_ids:
        if prod[(e, a)] != a or prod[(a, e)] != a:
            return f"identity law fails in S at {a}"
        if L.inv[a] not in sset or prod[(a, L.inv[a])] != e:
            return f"inversion fails in S at {a}"
    for a, b, c in itertools.product(L.s_ids, repeat=3):
        if prod[(prod[(a, b)], c)] != prod[(a, prod[(b, c)])]:
            return f"product on S not associative at ({a},{b},{c})"
    return None


@pytest.mark.parametrize("fixture,seed", [("loc_b", 1), ("loc_a", 7)])
def test_s_group_fault_matches_pair_keyed(fixture, seed, request):
    seen = set()
    for L in _corruptions(request.getfixturevalue(fixture), seed):
        want = _pair_keyed_s_group_fault(L)
        assert _s_group_fault(L) == want
        seen.add(want is None)
    assert seen == {True, False}


def test_realization_oracle_matches_pair_keyed(loc_b):
    """Group-realized tables with up to two product entries changed, on
    instance-b and on S6 at Delta = order >= 4: the oracle names the
    first disagreeing pair in (i, j) order.  Some changes define an entry
    off the domain or undefine one on it, so that the row no longer fits
    its class and the oracle reads it on its own; witnesses are named on
    both paths."""
    s6 = FiniteGroup(6, [from_cycles(6, (1, 2, 3, 4, 5, 6)),
                         from_cycles(6, (1, 2))])
    s = sylow_subgroup(s6, 2)
    for base in (loc_b, locality_from_group(s6, s, delta_min_order(s, 4),
                                            2)):
        rng = random.Random(5)
        pairs = list(base.prod)
        off = [(i, j) for i in range(base.n) for j in range(base.n)
               if base.rows[i][j] < 0]
        delta = [base.ids_of(d) for d in base.delta]
        seen, paths = set(), set()
        for _ in range(40):
            rows = [list(r[:-1]) for r in base.rows[:-1]]
            for _ in range(rng.randrange(3)):
                change = rng.randrange(3)
                if change == 2 or (change == 1 and not off):
                    i, j = rng.choice(pairs)
                    rows[i][j] = -1
                else:
                    i, j = rng.choice(off if change == 1 else pairs)
                    rows[i][j] = rng.randrange(base.n)
            L = Locality(base.labels, base.identity, base.inv, rows,
                         base.s_ids, base.p, delta,
                         realization=base.realization)
            bad = next(((i, j) for (i, j), k in L.prod.items()
                        if compose(L.labels[i], L.labels[j]) != L.labels[k]),
                       None)
            want = None if bad is None else (
                f"pair ({bad[0]},{bad[1]}) disagrees with the ambient product")
            check = next(c for c in validate_locality(L, 2).checks
                         if c.name == "realization_oracle")
            assert (check.passed, check.witness) == (want is None, want)
            seen.add(want is None)
            if bad is not None:  # does the row of the witness fit its class?
                i = bad[0]
                paths.add([L.preimage(i, L._sf[g]) in L.delta
                           for g in range(L.n)]
                          == [k >= 0 for k in L.rows[i][:-1]])
        assert seen == {True, False}
        assert paths == {True, False}


# -- one index of S for L and F_S(L) -----------------------------------------

def _copies(name):
    L = build_locality(load_descriptor(name))
    return L, locality_from_descriptor(locality_to_descriptor(L)), \
        relabelled_copy(L)


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_s_index_holds_s_ids_in_order(name):
    """Position i of ``s_index`` is the element of ``s_ids[i]`` in S's
    permutation group, for L, its abstract copy, and a relabelled copy
    whose identity is the largest id of S."""
    L, A, R = _copies(name)
    assert L.s_index.elements == tuple(L.labels[s] for s in L.s_ids)
    assert R.identity == max(R.s_ids) > min(R.s_ids)
    for X in (L, A, R):
        _, to_perm = X.group_on(X.s_ids)
        assert X.s_ids[0] == X.identity
        assert X.s_index.elements == tuple(map(to_perm.__getitem__,
                                               X.s_ids))
        assert X.lattice == X.s_index.lattice()


def test_restriction_shares_the_index_of_s():
    """The restriction of instance-b's L to its ``restriction`` delta, and
    of L's abstract copy, keeps the parent's S: one index of S, and F_S
    with the maps of a copy of the restriction that builds its own S."""
    d = load_descriptor("instance-b")
    L = build_locality(d)
    sub = delta_of({**d, "delta": d["restriction"]["delta"]},
                   L.realization, Instance(d).S)
    delta = [frozenset(L.id_of[g] for g in P.eset) for P in sub]
    maps = set()
    for X in (L, locality_from_descriptor(locality_to_descriptor(L))):
        R = restriction(X, delta)
        assert R.s_index is X.s_index
        own = locality_from_descriptor(locality_to_descriptor(R))
        assert own.s_index is not X.s_index
        assert fusion_of_locality(R).maps == fusion_of_locality(own).maps
        maps.add(fusion_of_locality(R).maps)
    assert len(maps) == 1


def test_s_index_refuses_an_s_table_whose_identity_is_not_ls():
    """C2 on ids {0, 1} with identity 1 in its table, declared with
    identity 0: the validator's ``s_subgroup`` check names the fault, and
    S cannot be indexed in the order of its ids."""
    L = locality_from_descriptor({
        "carrier": 2, "identity": 0, "inverse": [0, 1],
        "products": [[0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 1, 1]],
        "S": [0, 1], "p": 2, "delta": [[0, 1]]})
    s_check = validate_locality(L, 3).checks[0]
    assert (s_check.name, s_check.passed) == ("s_subgroup", False)
    with pytest.raises(LocalityError, match="identity of S is not L's"):
        L.s_index


def test_validator_refuses_an_s_that_is_not_a_p_group():
    """C3 declared at p = 2: ``s_subgroup`` names the order, and the
    S-lattice, which is built only for p-groups, is not asked for."""
    L = locality_from_descriptor({
        "carrier": 3, "identity": 0, "inverse": [0, 2, 1],
        "products": [[a, b, (a + b) % 3] for a in range(3) for b in range(3)],
        "S": [0, 1, 2], "p": 2, "delta": [[0, 1, 2]]})
    checks = {c.name: c for c in validate_locality(L, 3).checks}
    assert checks["s_subgroup"].witness == "S of order 3 is not a 2-group"
    assert checks["delta_closure"].witness == \
        "not checked: s_subgroup failed (S of order 3 is not a 2-group)"


def test_locality_from_group_refuses_an_s_that_is_not_a_p_group():
    """All of S4 as S at p = 2 is refused before its lattice is built."""
    G = FiniteGroup(4, [from_cycles(4, (1, 2, 3, 4)), from_cycles(4, (1, 2))])
    S = G.full_subgroup()
    with pytest.raises(LocalityError, match="S must be a p-group"):
        locality_from_group(G, S, [S], 2)


def test_s_maximal_check_fires():
    """S4 over its normal Klein four V, delta every subgroup of V: the
    carrier is all of S4, and element 1, a transposition, extends V to a
    Sylow 2-subgroup.  Every other check passes at length 3."""
    G = FiniteGroup(4, [from_cycles(4, (1, 2, 3, 4)), from_cycles(4, (1, 2))])
    V = G.subgroup([(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)])
    L = locality_from_group(G, V, all_subgroups(G, within=V), 2)
    rep = validate_locality(L, 3)
    failed = [(c.name, c.witness) for c in rep.checks if not c.passed]
    assert failed == [("s_maximal_p_subgroup",
                       "element 1 extends S to a p-subgroup")]
