"""Partial subgroups, partial (sub)normality, and the product NK.

All predicates are relative: ``ambient`` is a subset of the carrier
forming a partial subgroup, and conjugation / products are always the
ones of the enclosing locality.  This keeps N_L(T)-relative statements
free of re-indexing.

Conjugation is decided on masks: (f^-1, n, f) is in the domain exactly
when the preimage of S_f under n and then f^-1 is in delta.  That
depends only on (class of f^-1, S_f) and on the class of n, so the n
admitted for f are listed once per such pair, one delta test per class
of n, and the conjugates of all of them are read off two rows at once.
``is_partial_subgroup`` and ``is_partial_normal`` memoize their
verdicts on the locality, each together with its first fault, so a set
asked about again costs one dict lookup; ``decompose`` likewise indexes
the matched pairs of N x K by product once per (N, K).  Set products and
closures read the locality's product rows, one row per left factor.

The harnesses check the two structure theorems about NK (normal and
subnormal K) and the restriction-compatibility lemma on concrete
instances, clause by clause; a failed partial-subgroup, normality,
equality or decomposition clause carries a witness.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .locality import (Locality, LocalityError, normalizer_carrier,
                       restriction, strongly_closed_in_carrier)
from .permgroup import getter
from .report import PreconditionError, Report

# the largest carrier whose partial normal subgroups are enumerated
ENUM_CAP = 400


def partial_subgroup_witness(L: Locality, X: Iterable[int]) -> Optional[dict]:
    """The first way X fails to be a partial subgroup, or None.

    In order: the identity missing, the first element in id order whose
    inverse is outside X, the first pair (x, y) of X in D, in id order,
    with x·y undefined or outside X.  Memoized on L per X.

    Pairs are enough.  In a locality, a word uf in D has u in D,
    (Pi(u), f) in D and Pi(uf) = Pi(u)·f (``validate_locality`` proves it
    from the checks that pass; Chermak, "Fusion systems and localities",
    Acta Math. 2013, §1, from the axioms).  So by induction on the length
    of a word over X, its fold is a product x·y of a pair of X in D, and
    X, containing 1 and closed under inversion, is a partial subgroup
    exactly when every such x·y lies in X.  The pairs (x, y) in D depend
    on x only through its class, and on y through S_y: the y admitted are
    listed once per class of x, and one getter reads them off the row of
    x.
    """
    X = frozenset(X)
    key = ("subgroup", X)
    if key not in L._verdicts:
        fault = None
        if L.identity not in X:
            fault = {"identity_missing": L.identity}
        else:
            x = next((x for x in sorted(X) if L.inv[x] not in X), None)
            if x is not None:
                fault = {"inverse_outside": {"x": x, "x^-1": L.inv[x]}}
            else:
                fault = _pair_fault(L, X)
        L._verdicts[key] = fault
    return L._verdicts[key]


def _pair_fault(L: Locality, X: frozenset) -> Optional[dict]:
    """The first pair (x, y) of X in D, in id order, whose product is
    outside X (-1 included), as ``{"word": [x, y]}``, or None."""
    xs = sorted(X)
    sfs = {L._sf[y] for y in xs}
    reads: dict[int, tuple] = {}  # class of x -> (the y it admits, getter)
    for x in xs:
        r = reads.get(L._cls[x])
        if r is None:
            ok = {d: L.preimage(x, d) in L.delta for d in sfs}
            ys = [y for y in xs if ok[L._sf[y]]]
            r = reads[L._cls[x]] = (ys, getter(ys))
        ys, at = r
        vs = at(L.rows[x])
        if not X.issuperset(vs):
            return {"word": [x, next(y for y, v in zip(ys, vs)
                                     if v not in X)]}
    return None


def is_partial_subgroup(L: Locality, X: Iterable[int]) -> bool:
    """Inversion-closed, contains 1, and x·y in X for every pair (x, y)
    of X in D, which puts the fold of every word of D over X in X
    (``partial_subgroup_witness``).  The verdict is memoized on L per X,
    with its first fault.
    """
    return partial_subgroup_witness(L, X) is None


def _conjugates(L: Locality, fs: Iterable[int], xs: Iterable[int]):
    """For each f of ``fs`` in order: f, the x of ``xs`` (in their order)
    with (f^-1, x, f) in the domain, and their x^f (-1 where the fold
    is undefined).

    S_(f^-1, x, f) is the preimage of S_f under x and then f^-1, so the
    admitted x depend on f only through (class of f^-1, S_f), and on x
    only through its class: each list is decided once per such pair,
    one delta test per class of ``xs``.  The conjugates of f are then
    read a row at a time: the row of 1·f^-1 (where the fold of
    (f^-1, x, f) starts) at the admitted x, and column f at the results.
    """
    cls, inv, sf, rows, delta = L._cls, L.inv, L._sf, L.rows, L.delta
    pre = L.preimage
    xs = list(xs)
    x_cls = list(map(cls.__getitem__, xs))
    reps = dict(zip(x_cls, xs))  # class -> an x of it
    admitted: dict[tuple[int, int], list[int]] = {}
    start = rows[L.identity]
    for f in fs:
        fi = inv[f]
        key = (cls[fi], sf[f])
        if key not in admitted:
            ok = {c: pre(fi, pre(x, sf[f])) in delta for c, x in reps.items()}
            admitted[key] = list(itertools.compress(
                xs, map(ok.__getitem__, x_cls)))
        ys = admitted[key]
        row = rows[start[fi]]
        yield f, ys, list(map(itemgetter(f), map(rows.__getitem__,
                                                 map(row.__getitem__, ys))))


def partial_normal_witness(L: Locality, N: Iterable[int],
                           ambient: Optional[Iterable[int]] = None
                           ) -> Optional[tuple[int, int]]:
    """The first (f, n) in id order with f in the ambient set, (f^-1, n, f)
    defined and n^f outside N; None when there is none.  Memoized on L
    per (N, ambient set).

    The conjugates of N by one f are tested against N at once; only a
    failing f is scanned, to name its first n."""
    Nset = frozenset(N)
    amb = None if ambient is None else frozenset(ambient)
    key = ("normal", Nset, amb)
    if key not in L._verdicts:
        fs = range(L.n) if amb is None else sorted(amb)
        L._verdicts[key] = next(
            ((f, next(n for n, z in zip(ns, zs) if z not in Nset))
             for f, ns, zs in _conjugates(L, fs, sorted(Nset))
             if not Nset.issuperset(zs)), None)
    return L._verdicts[key]


def is_partial_normal(L: Locality, N: Iterable[int],
                      ambient: Optional[Iterable[int]] = None) -> bool:
    """n^f in N for all f in the ambient set with (f^-1, n, f) defined."""
    return partial_normal_witness(L, N, ambient) is None


def partial_normal_closure(L: Locality, seed: Iterable[int],
                           ambient: Iterable[int]) -> frozenset[int]:
    """Smallest subset of ambient containing seed that is closed under
    inversion, defined pairwise products, and defined conjugation by
    ambient elements."""
    amb = sorted(set(ambient))
    X = set(seed)
    X.add(L.identity)
    while True:
        X.update([L.inv[x] for x in X])
        zs = _products(L, X, X)
        for _, _, conj in _conjugates(L, amb, sorted(X)):
            zs.update(conj)
        zs.discard(-1)
        if zs <= X:
            return frozenset(X)
        X |= zs


def is_subnormal(L: Locality, H: Iterable[int],
                 ambient: Optional[Iterable[int]] = None
                 ) -> tuple[bool, list[tuple[int, ...]]]:
    """Subnormality via descending iterated normal closures.

    The series A_0 = ambient, A_{i+1} = normal closure of H in A_i
    terminates; H is subnormal exactly when it reaches H, and the series
    is then a subnormal chain of minimal-closure type.  Returns the
    chain from H up to the ambient set.
    """
    Hset = frozenset(H)
    amb = frozenset(range(L.n) if ambient is None else ambient)
    if not Hset <= amb:
        raise LocalityError("H must lie inside the ambient set")
    chain, cur = [tuple(sorted(amb))], amb
    while (nxt := partial_normal_closure(L, Hset, cur)) != cur:
        chain.append(tuple(sorted(nxt)))
        cur = nxt
    return cur == Hset, list(reversed(chain))


def _products(L: Locality, X: Iterable[int], Y: Iterable[int]) -> set[int]:
    """{x·y : x in X, y in Y}, a row of X at a time, with -1 standing for
    the undefined pairs."""
    Y = list(Y)
    out = set()
    for x in X:
        out.update(map(L.rows[x].__getitem__, Y))
    return out


def set_product(L: Locality, X: Iterable[int], Y: Iterable[int]) -> tuple[int, ...]:
    """Pi(X, Y): products of composable pairs only, no closure."""
    out = _products(L, X, Y)
    out.discard(-1)
    return tuple(sorted(out))


def group_product_in_s(L: Locality, A: Iterable[int], B: Iterable[int]) -> frozenset[int]:
    """Product set of two subsets of S (LocalityError when the product
    is not total on them)."""
    out = _products(L, A, B)
    if -1 in out:
        raise LocalityError("the product is not total on S")
    return frozenset(out)


class DecompositionNotFound(LocalityError):
    """No (n, k) pair with g = nk and S_g = S_(n,k); a violation of the product structure."""


def _matched_pairs(L: Locality, A: Sequence[int], B: Sequence[int]
                   ) -> dict[int, tuple[int, int]]:
    """c -> the first (a, b) in id order with ab = c and S_(a,b) = S_c."""
    out: dict[int, tuple[int, int]] = {}
    sf, pre = L._sf, L.preimage
    for a in A:
        for b, c in zip(B, map(L.rows[a].__getitem__, B)):
            # S_(a,b) = pre_a(S_b), cached per (class of a, S_b), and S_c
            # is the domain of c
            if c >= 0 and c not in out and pre(a, sf[b]) == sf[c]:
                out[c] = (a, b)
    return out


def decompose(L: Locality, N: Iterable[int], K: Iterable[int],
              g: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(n, k) and (k', n') with g = nk = k'n' and S_g = S_(n,k) = S_(k',n').

    Each pair is the first in id order with that product and S_(a,b) =
    S_g, recomputed from the tables, never assumed.  The pairs are
    indexed by product once per (N, K), memoized on L.
    """
    Nset, Kset = frozenset(N), frozenset(K)
    key = ("decompose", Nset, Kset)
    if key not in L._verdicts:
        L._verdicts[key] = (_matched_pairs(L, sorted(Nset), sorted(Kset)),
                            _matched_pairs(L, sorted(Kset), sorted(Nset)))
    nks, kns = L._verdicts[key]
    nk, kn = nks.get(g), kns.get(g)
    if nk is None or kn is None:
        raise DecompositionNotFound(
            f"element {g} admits no matched decomposition "
            f"(nk found: {nk is not None}, kn found: {kn is not None})")
    return nk, kn


# -- theorem harnesses -------------------------------------------------------

def _t_of(L: Locality, N: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(set(N) & set(L.s_ids)))


def _normality_witness(L: Locality, X: Iterable[int],
            ambient: Optional[Iterable[int]] = None) -> dict:
    """Witness of a failed partial-normality clause: f, n and n^f.
    Called after ``is_partial_normal`` said False, so it is a memo hit."""
    f, n = partial_normal_witness(L, X, ambient)
    return {"f": f, "n": n, "n^f": L.fold((L.inv[f], n, f))}


def _partial_normal_clause(L: Locality, X: Iterable[int],
                           ambient: Optional[Iterable[int]] = None):
    """(verdict, witness) of: X is a partial subgroup, partial normal in
    the ambient set (all of L by default)."""
    wit = partial_subgroup_witness(L, X)
    if wit is not None:
        return False, wit
    if not is_partial_normal(L, X, ambient):
        return False, _normality_witness(L, X, ambient)
    return True, None


def _check_nk_preconditions(L: Locality, N: Iterable[int], K: Iterable[int],
                            require_normal_k: bool
                            ) -> tuple[tuple[int, ...], list[int]]:
    Nset = frozenset(N)
    Kset = frozenset(K)
    if not is_partial_subgroup(L, Nset):
        raise PreconditionError("N is not a partial subgroup")
    if not is_partial_normal(L, Nset):
        raise PreconditionError("N is not partial normal in L")
    T = _t_of(L, Nset)
    if not strongly_closed_in_carrier(L, T):
        raise PreconditionError("T = S ∩ N is not strongly closed")
    nlt = normalizer_carrier(L, T)
    if not Kset <= set(nlt):
        raise PreconditionError("K does not lie in N_L(T)")
    if not is_partial_subgroup(L, Kset):
        raise PreconditionError("K is not a partial subgroup")
    if require_normal_k and not is_partial_normal(L, Kset, ambient=nlt):
        raise PreconditionError("K is not partial normal in N_L(T)")
    return T, nlt


def check_theorem2_hypotheses(L: Locality, N: frozenset, K: frozenset
                              ) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """Theorem 2's setting on (L, N, K), or PreconditionError naming the
    first hypothesis that fails: N partial normal in L with T = S ∩ N
    strongly closed, and K a partial subgroup subnormal in N_L(T).
    Returns T and the subnormal chain of K up to N_L(T)."""
    T, nlt = _check_nk_preconditions(L, N, K, False)
    ok, chain = is_subnormal(L, K, ambient=nlt)
    if not ok:
        raise PreconditionError("K is not subnormal in N_L(T)")
    return T, chain


def _nk_clauses(rep: Report, L: Locality, Nset: frozenset, Kset: frozenset,
                T: Sequence[int]) -> tuple[int, ...]:
    """Set the clauses both theorems share: NK = KN, NK is a partial
    subgroup, and NK ∩ S = T(K ∩ S).  Returns NK."""
    NK = set_product(L, sorted(Nset), sorted(Kset))
    KN = set_product(L, sorted(Kset), sorted(Nset))
    rep.set("nk_equals_kn", set(NK) == set(KN),
            None if set(NK) == set(KN) else sorted(set(NK) ^ set(KN)))
    wit = partial_subgroup_witness(L, NK)
    rep.set("nk_partial_subgroup", wit is None, wit)
    lhs = frozenset(NK) & frozenset(L.s_ids)
    rhs = group_product_in_s(L, T, set(Kset) & set(L.s_ids))
    rep.set("nk_cap_s_equals_t_times_k_cap_s", lhs == rhs,
            None if lhs == rhs else sorted(lhs ^ rhs))
    return NK


def verify_theorem_nk_normal(L: Locality, N: Iterable[int], K: Iterable[int],
                             instance: str = "") -> Report:
    """NK is partial normal, NK = KN, NK ∩ S = T(K ∩ S), and every
    element of NK decomposes in both orders with matching S_g."""
    rep = Report(suite="nk_normal", instance=instance)
    Nset, Kset = frozenset(N), frozenset(K)
    T, _ = _check_nk_preconditions(L, Nset, Kset, True)

    NK = _nk_clauses(rep, L, Nset, Kset, T)
    ok = is_partial_normal(L, NK)
    rep.set("nk_partial_normal", ok,
            None if ok else _normality_witness(L, NK))

    bad = None
    for g in NK:
        try:
            decompose(L, Nset, Kset, g)
        except DecompositionNotFound as exc:
            bad = f"g={g}: {exc}"
            break
    rep.set("decompose_both_orders", bad is None, bad)
    rep.extra["nk_order"] = len(NK)
    return rep


def verify_theorem_nk_subnormal(L: Locality, N: Iterable[int],
                                K: Iterable[int], instance: str = "") -> Report:
    """NK = KN is partial subnormal with exhibited chain and
    S ∩ NK = T(S ∩ K).  The regularity hypothesis of the subnormal
    statement is not certified at this scale; the report says so."""
    rep = Report(suite="nk_subnormal", instance=instance)
    rep.flags.append("regularity_not_certified")
    Nset, Kset = frozenset(N), frozenset(K)
    T, chain_k = check_theorem2_hypotheses(L, Nset, Kset)
    rep.extra["k_chain_lengths"] = [len(c) for c in chain_k]

    NK = _nk_clauses(rep, L, Nset, Kset, T)
    ok, chain = is_subnormal(L, NK)
    rep.set("nk_subnormal", ok, None if ok else [len(c) for c in chain])
    rep.extra["nk_chain_lengths"] = [len(c) for c in chain]
    return rep


def verify_restriction_product(Lplus: Locality, delta: Iterable[frozenset[int]],
                               Nplus: Iterable[int], Kplus: Iterable[int],
                               instance: str = "") -> Report:
    """Compatibility of NK with restriction:
    Pi+(N+, K+) ∩ L = Pi(N, K) where L is the restriction, N = N+ ∩ L,
    K = K+ ∩ L; additionally N ⊴ L and K ⊴ N_L(T)."""
    rep = Report(suite="restriction_product", instance=instance)
    Np, Kp = frozenset(Nplus), frozenset(Kplus)
    _check_nk_preconditions(Lplus, Np, Kp, True)

    L = restriction(Lplus, delta)
    keep = L.ids_of_labels  # map back through labels
    lab = Lplus.label_set
    carrier_labels = L.label_set(range(L.n))
    N = keep(lab(Np) & carrier_labels)
    K = keep(lab(Kp) & carrier_labels)

    rep.set("n_restricted_partial_normal",
            *_partial_normal_clause(L, N))
    T = _t_of(L, N)
    nlt = normalizer_carrier(L, T)
    outside = sorted(set(K) - set(nlt))
    if outside:
        rep.set("k_restricted_normal_in_nlt", False, {"outside_nlt": outside})
    else:
        rep.set("k_restricted_normal_in_nlt",
                *_partial_normal_clause(L, K, nlt))

    big = Lplus.label_set(set_product(Lplus, sorted(Np), sorted(Kp)))
    small = L.label_set(set_product(L, sorted(N), sorted(K)))
    lhs = big & carrier_labels
    rep.set("product_restricts", lhs == small,
            None if lhs == small else sorted(map(str, lhs ^ small)))
    return rep


def enumerate_partial_normals(L: Locality) -> list[tuple[int, ...]]:
    """The ids of every partial normal subgroup, by size: join-closure of
    the normal closures of single elements."""
    if L.n > ENUM_CAP:
        raise LocalityError(f"carrier size {L.n} exceeds cap {ENUM_CAP}")
    amb = range(L.n)
    seeds = {partial_normal_closure(L, {f}, amb) for f in amb}
    seeds.add(frozenset({L.identity}))
    normals = set(seeds)
    worklist = list(seeds)
    while worklist:
        a = worklist.pop()
        for b in list(normals):
            if a <= b or b <= a:
                continue
            join = partial_normal_closure(L, a | b, amb)
            if join not in normals:
                normals.add(join)
                worklist.append(join)
    return sorted((tuple(sorted(x)) for x in normals),
                  key=lambda ids: (len(ids), ids))
