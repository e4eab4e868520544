"""Partial subgroup predicates and the NK product harnesses."""

from pathlib import Path

import pytest

from locfusion.instances import (build_locality, delta_of, k_choice,
                                 load_descriptor, named_subgroup, resolve_ids,
                                 sylow_of)
from locfusion.locality import (LocalityError, delta_min_order,
                                locality_from_descriptor,
                                locality_to_descriptor, normalizer_carrier)
from locfusion.partial_subgroups import (DecompositionNotFound, _conjugates,
                                         _partial_normal_clause, decompose,
                                         enumerate_partial_normals,
                                         group_product_in_s,
                                         is_partial_normal,
                                         is_partial_subgroup, is_subnormal,
                                         partial_normal_closure,
                                         partial_normal_witness,
                                         partial_subgroup_witness,
                                         set_product,
                                         verify_restriction_product,
                                         verify_theorem_nk_normal,
                                         verify_theorem_nk_subnormal)
from locfusion.permgroup import compose, conjugate, inverse
from locfusion.report import PreconditionError

from answer_oracles import oracle_word_states
from cycles import from_cycles

S6_DESCRIPTOR = Path(__file__).resolve().parents[1] / "perfbench" / \
    "instances" / "s6.json"


@pytest.fixture(scope="module")
def desc_b():
    return load_descriptor("instance-b")


@pytest.fixture(scope="module")
def lb(desc_b):
    return build_locality(desc_b)


@pytest.fixture(scope="module")
def n_alt(desc_b, lb):
    return resolve_ids(lb, named_subgroup(desc_b, lb.realization, "alt"))


def test_alternating_intersection_is_partial_normal(lb, n_alt):
    assert len(n_alt) == 12
    assert is_partial_normal(lb, n_alt)


def test_partial_subgroup_rejects_missing_inverse(lb):
    f = next(i for i in range(lb.n) if lb.inv[i] != i)
    assert not is_partial_subgroup(lb, {lb.identity, f})


def test_order2_subnormal_via_klein(loc_a):
    u = loc_a.ids_of_labels([tuple(range(4)), from_cycles(4, (1, 2), (3, 4))])
    ok, chain = is_subnormal(loc_a, frozenset(u))
    assert ok
    assert [len(c) for c in chain][:2] == [2, 4]


def test_partial_normal_closure_of_double_transposition(loc_a):
    u = loc_a.id_of[from_cycles(4, (1, 2), (3, 4))]
    cl = partial_normal_closure(loc_a, {u}, range(loc_a.n))
    assert len(cl) == 4  # the full double-transposition subgroup


def test_set_product_matches_group_oracle(loc_a):
    X = frozenset(loc_a.ids_of_labels(
        [tuple(range(4)), from_cycles(4, (1, 2), (3, 4))]))
    Y = frozenset(loc_a.ids_of_labels(
        [tuple(range(4)), from_cycles(4, (1, 3), (2, 4))]))
    got = {loc_a.labels[i] for i in set_product(loc_a, X, Y)}
    oracle = {compose(loc_a.labels[x], loc_a.labels[y]) for x in X for y in Y}
    assert got == oracle


def test_group_product_in_s_requires_a_total_product(loc_a):
    d = locality_to_descriptor(loc_a)
    S = set(d["S"]) - {d["identity"]}
    a, b, _ = next(t for t in d["products"] if t[0] in S and t[1] in S)
    d["products"] = [t for t in d["products"] if t[:2] != [a, b]]
    L = locality_from_descriptor(d)
    assert group_product_in_s(L, [a], [L.identity]) == {a}
    with pytest.raises(LocalityError, match="not total"):
        group_product_in_s(L, [a], [b])


def test_theorem1_all_k_choices(desc_b, lb, n_alt):
    for kname in ("trivial", "t", "order12", "nlt"):
        K = k_choice(desc_b, lb, kname)
        rep = verify_theorem_nk_normal(lb, n_alt, K, instance=kname)
        assert rep.ok, (kname, rep.to_json())


def test_theorem1_nk_cap_s(desc_b, lb, n_alt):
    K = k_choice(desc_b, lb, "nlt")
    rep = verify_theorem_nk_normal(lb, n_alt, K)
    assert rep.clauses["nk_cap_s_equals_t_times_k_cap_s"] is True


def test_theorem1_rejects_non_normal_k(desc_b, lb, n_alt):
    K = k_choice(desc_b, lb, "u2")
    with pytest.raises(PreconditionError):
        verify_theorem_nk_normal(lb, n_alt, K)


def test_theorem2_subnormal_k(desc_b, lb, n_alt):
    K = k_choice(desc_b, lb, "u2")
    rep = verify_theorem_nk_subnormal(lb, n_alt, K, instance="u2")
    assert rep.ok, rep.to_json()
    assert "regularity_not_certified" in rep.flags
    # S cap NK = T here since K <= N
    assert rep.clauses["nk_cap_s_equals_t_times_k_cap_s"] is True


def test_decompose_both_orders(desc_b, lb, n_alt):
    K = k_choice(desc_b, lb, "order12")
    nk = set_product(lb, n_alt, K)
    g = sorted(nk)[len(nk) // 2]
    (n, k), (k2, n2) = decompose(lb, n_alt, K, g)
    for w in ((n, k), (k2, n2)):
        assert lb.s_mask(w) in lb.delta and lb.fold(w) == g
    assert lb.s_mask((g,)) == lb.s_mask((n, k))


def _scan_decompose(L, N, K, g):
    """Brute force: the first matched pair of N x K and of K x N in id
    order, scanned afresh for g; None for an order without one."""
    sg = L.s_mask((g,))

    def search(A, B):
        return next(((a, b) for a in sorted(A) for b in sorted(B)
                     if L.prod.get((a, b)) == g
                     and L.s_mask((a, b)) == sg), None)
    return search(N, K), search(K, N)


def test_decompose_matches_scan_on_every_g(desc_b, lb, n_alt):
    K = k_choice(desc_b, lb, "order12")
    for g in set_product(lb, n_alt, K):
        assert decompose(lb, n_alt, K, g) == _scan_decompose(lb, n_alt, K, g)
    # a g outside NK has no matched pair in either order
    g = next(g for g in range(lb.n)
             if _scan_decompose(lb, n_alt, K, g) == (None, None))
    with pytest.raises(DecompositionNotFound) as exc:
        decompose(lb, n_alt, K, g)
    assert str(exc.value) == (f"element {g} admits no matched decomposition "
                              "(nk found: False, kn found: False)")


def test_restriction_lemma(desc_b, lb, n_alt):
    G = lb.realization
    from locfusion.instances import delta_of, sylow_of
    S = sylow_of(desc_b, G)
    sub_delta = delta_of({**desc_b, "delta": {"min_order": 8}}, G, S)
    delta_ids = [frozenset(lb.id_of[g] for g in P.eset) for P in sub_delta]
    K = k_choice(desc_b, lb, "order12")
    rep = verify_restriction_product(lb, delta_ids, n_alt, K,
                                     instance="instance-b")
    assert rep.ok, rep.to_json()


def test_enumerate_partial_normals_b(lb):
    got = sorted(len(P) for P in enumerate_partial_normals(lb))
    assert got == [1, 4, 12, 24]


def test_enumerate_partial_normals_matches_group_side(loc_a, s4):
    from answer_oracles import normal_subgroups
    oracle = {frozenset(N.eset) for N in normal_subgroups(s4)}
    got = {loc_a.label_set(P) for P in enumerate_partial_normals(loc_a)}
    assert got == oracle


def test_normalizer_carrier_is_group(lb, n_alt):
    T = frozenset(lb.s_ids) & n_alt
    assert len(T) == 4
    nlt = normalizer_carrier(lb, T)
    assert len(nlt) == 24  # all of the carrier normalizes T here


# -- partial normality and its closure against the element-wise definition ----

def _element_wise_s_w(L, S, w):
    cur = {s: s for s in S.elements}
    for f in w:
        g = L.labels[f]
        cur = {s: conjugate(x, g) for s, x in cur.items()
               if conjugate(x, g) in S.eset}
    return frozenset(cur)


class _Brute:
    """Domain, products and conjugation of a group-realized locality from
    the element-wise S_w and the multiplication of the ambient group."""

    def __init__(self, d):
        self.L = L = build_locality(d)
        G = L.realization
        self.S = sylow_of(d, G)
        self.dsets = {P.eset for P in delta_of(d, G, self.S)}

    def defined(self, w):
        return _element_wise_s_w(self.L, self.S, w) in self.dsets

    def inv(self, f):
        return self.L.id_of[inverse(self.L.labels[f])]

    def conj(self, f, n):
        """n^f when (f^-1, n, f) is in the domain, else None."""
        L = self.L
        if not self.defined((self.inv(f), n, f)):
            return None
        return L.id_of[conjugate(L.labels[n], L.labels[f])]

    def violations(self, N, ambient):
        N = set(N)
        return [(f, n) for f in sorted(ambient) for n in sorted(N)
                if self.conj(f, n) not in (None, *N)]

    def closure(self, seed, ambient):
        L = self.L
        X = set(seed) | {L.identity}
        while True:
            new = {self.inv(x) for x in X}
            new |= {L.id_of[compose(L.labels[x], L.labels[y])]
                    for x in X for y in X if self.defined((x, y))}
            new |= {self.conj(f, x) for f in ambient for x in X} - {None}
            if new <= X:
                return frozenset(X)
            X |= new


@pytest.fixture(scope="module",
                params=["instance-b", "instance-b-delta2", "s6-delta8"])
def brute(request):
    """instance-b as shipped and with delta = order >= 2, and S6 with
    delta = order >= 8; the last two have words outside the domain."""
    if request.param.startswith("instance-b"):
        d = load_descriptor("instance-b")
        if request.param.endswith("delta2"):
            d = {**d, "delta": {"min_order": 2}}
    else:
        d = load_descriptor(str(S6_DESCRIPTOR))
        d = {**d, "delta": {"min_order": 8}}
    return d, _Brute(d)


def _n_and_k_choices(d, L):
    N = resolve_ids(L, named_subgroup(d, L.realization, "alt"))
    T = frozenset(L.s_ids) & N
    nlt = normalizer_carrier(L, T)
    return N, nlt, {k: k_choice(d, L, k) for k in d["k_choices"]}


def test_conjugate_domain_matches_element_wise(brute):
    """The one domain test of the predicates: (f^-1, n, f) in D, for
    every pair, with its value n^f."""
    _, B = brute
    L = B.L
    for f, ns, zs in _conjugates(L, range(L.n), range(L.n)):
        want = {n: B.conj(f, n) for n in range(L.n)}
        assert dict(zip(ns, zs)) == \
            {n: z for n, z in want.items() if z is not None}, f


def test_partial_normal_matches_element_wise(brute):
    d, B = brute
    L = B.L
    N, nlt, ks = _n_and_k_choices(d, L)
    whole = range(L.n)
    S = frozenset(L.s_ids)
    cases = [(N, None), (S, None)] + [(K, nlt) for K in ks.values()]
    for X, amb in cases:
        bad = B.violations(X, whole if amb is None else amb)
        assert is_partial_normal(L, X, amb) == (not bad)
        assert partial_normal_witness(L, X, amb) == (bad[0] if bad else None)
    assert is_partial_normal(L, N)
    assert not is_partial_normal(L, S)


def test_partial_normal_closure_matches_element_wise(brute):
    d, B = brute
    L = B.L
    N, nlt, ks = _n_and_k_choices(d, L)
    whole = range(L.n)
    cases = [({min(N - {L.identity})}, whole), (set(L.s_ids), whole)]
    cases += [(K, nlt) for K in ks.values()]
    for seed, amb in cases:
        assert partial_normal_closure(L, seed, amb) == B.closure(seed, amb)


@pytest.mark.parametrize("first", ["whole", "normalizer"])
def test_normal_memo_keys_on_ambient(desc_b, first):
    L = build_locality(desc_b)  # a fresh memo
    S = frozenset(L.s_ids)
    nls = normalizer_carrier(L, S)
    ambient = {"whole": None, "normalizer": nls}
    expected = {"whole": False, "normalizer": True}
    order = [first, next(k for k in ambient if k != first)]
    for k in order + order:
        assert is_partial_normal(L, S, ambient[k]) is expected[k], k


def test_normality_witness_violates_definition(desc_b):
    B = _Brute(desc_b)
    L = B.L
    S = frozenset(L.s_ids)
    ok, wit = _partial_normal_clause(L, S)
    assert not ok
    f, n = wit["f"], wit["n"]
    assert n in S and B.defined((B.inv(f), n, f))
    assert wit["n^f"] == B.conj(f, n) and wit["n^f"] not in S
    # the first violating pair in id order
    assert B.violations(S, range(L.n))[0] == (f, n)
    g = next(i for i in range(L.n) if L.inv[i] != i)
    assert _partial_normal_clause(L, {L.identity, g}) == \
        (False, {"inverse_outside": {"x": g, "x^-1": L.inv[g]}})


@pytest.mark.parametrize("bounds", [(1, 2), (2, 1)])
def test_subgroup_verdict_ignores_the_word_bound(bounds):
    """A descriptor's ``max_word_length`` is not read: instance-a built
    with 1 and with 2, in either order, gives the one verdict of the pair
    check, asked twice, with the square of f or of f^-1, whichever has the
    smaller id, as its witness."""
    d = load_descriptor("instance-a")
    for bound in bounds:
        L = build_locality({**d, "max_word_length": bound})  # a fresh memo
        assert not hasattr(L, "max_word_length")
        f = next(i for i in range(L.n) if L.prod[(i, i)] != L.inv[i]
                 and L.prod[(i, i)] != L.identity)
        X = {L.identity, f, L.inv[f]}  # f of order 4: f^2 is missing
        for _ in range(2):
            assert not is_partial_subgroup(L, X), bound
        m = min(f, L.inv[f])
        assert partial_subgroup_witness(L, X) == {"word": [m, m]}


# -- the witness of a failed partial-subgroup test -----------------------------

def test_partial_subgroup_witness_kinds(lb):
    e = lb.identity
    f = next(i for i in range(lb.n) if lb.inv[i] != i)
    assert partial_subgroup_witness(lb, {f, lb.inv[f]}) == \
        {"identity_missing": e}
    assert partial_subgroup_witness(lb, {e, f}) == \
        {"inverse_outside": {"x": f, "x^-1": lb.inv[f]}}
    g = next(g for g in range(lb.n)
             if lb.prod.get((g, g)) not in (None, e, g, lb.inv[g]))
    X = {e, g, lb.inv[g]}  # g*g is defined and outside X
    wit = partial_subgroup_witness(lb, X)
    assert set(wit) == {"word"}
    assert lb.fold(tuple(wit["word"])) not in X
    assert not is_partial_subgroup(lb, X)
    assert partial_subgroup_witness(lb, range(lb.n)) is None


def test_nk_partial_subgroup_clause_carries_the_first_failing_word():
    """S6 at p=2 with one product entry removed, chosen so that N = alt,
    K = S still meet every precondition: both harnesses fail
    ``nk_partial_subgroup`` with a pair of NK in D whose product is
    undefined, the first one a walk over NK to length 4 reports, and the
    witness is the memoized one.  The entry's product lies outside S, so
    no conjugation map reads it and the pair stays in D."""
    d = load_descriptor(str(S6_DESCRIPTOR))
    L = build_locality(d)
    N, _, ks = _n_and_k_choices(d, L)
    K = ks["s"]
    NK = set(set_product(L, sorted(N), sorted(K)))
    sset = set(L.s_ids)
    ab = locality_to_descriptor(L)
    idx = next(i for i, (a, b, c) in enumerate(ab["products"])
               if a in NK and b in NK and not sset & {a, b, c}
               and not {a, b} <= N and not {a, b} <= K)
    bad = locality_from_descriptor(
        dict(ab, products=ab["products"][:idx] + ab["products"][idx + 1:]))
    for verify in (verify_theorem_nk_normal, verify_theorem_nk_subnormal):
        rep = verify(bad, N, K)
        assert rep.clauses["nk_partial_subgroup"] is False
        wit = rep.witnesses["nk_partial_subgroup"]
        assert bad.fold(tuple(wit["word"])) is None
        assert wit == partial_subgroup_witness(bad, NK)
        assert tuple(wit["word"]) == oracle_word_states(bad, 4, NK)[1][0]
    assert verify_theorem_nk_normal(L, N, K).clauses["nk_partial_subgroup"]
