"""Direct forms of answers the library derives more cheaply, kept as
oracles.

``normalizer_by_sources`` builds N_F(Q) from every map of F whose source
contains Q and which sends Q onto Q, restricted to every subgroup of
N_S(Q) inside its source; the library takes only the maps on sources
between Q and N_S(Q) and restricts each to the P with PQ equal to its
source.  ``normal_closure_by_all_maps`` and
``strongly_invariant_by_all_maps`` conjugate each map phi of E by every
map of F whose source contains phi's source and image, and the normal
closure is closed from the inner maps, over the strong closure of E's
Sylow (``ref_strong_closure``, element by element); the library
conjugates phi only by the maps on the join of its source and image.

``normal_subsystems_by_every_map`` is the search for normal subsystems
that the library ran before it took Alperin's generators: over each
strongly closed T it grows the normal closure of Inn(T) by every map of
F inside T missing from a system found, with its F-conjugates; the
library adds one F-orbit of automorphisms of a subgroup P of T with
C_T(P) <= P at a time.

``subnormal_chain_by_closures`` is the chain search by descending
normal closures that the library ran before it read subnormality off the
normal subsystems: it answers "unknown" when a link of the chain fails
the normality audit.  ``closed_subsystems_by_exhaust`` builds every
closed subsystem over every subgroup of S, and
``subnormal_subsystems_by_exhaust`` keeps those the chain search finds
subnormal, as the library enumerated them; the library grows only the
F-invariant systems over the strongly closed subgroups.

``linking_per_object`` is the linking certificate with N_L(P) built as
a permutation group (``local_group``) and tested by a Sylow search for
every object of delta; the library tests one object per F_S(L)-class,
its fully normalized member, on the product rows.
``locality_route_fault_by_lattice``
asks of every subgroup of S whether it is subcentric; the library asks
once per class outside delta.  ``locality_tables_by_pairs`` builds the
tables of L_delta(G) a product pair at a time, conjugating every element
of G directly and looking each product up by its permutation; the
library conjugates one element per right coset of S and reads a row a
coset at a time off the Cayley table of S.

``oracle_word_states`` is the word-state walk that the validator and the
partial-subgroup predicates ran to a word bound before the pair and
triple checks replaced it, with one map composed as a tuple per state
and letter (``composite_s_w`` composes a whole word).
``word_states_by_composites`` is ``locality._word_states`` as it was
before it tested delta once per distinct S_f: it composes every letter
class's map after a state's map and tests the domain of each composite.
``oracle_checks`` runs the fold, S_w and split checks of that walk to a
bound: the split check over every pair of states and letter
(``oracle_associativity``), and ``brute_force_split_fault`` folds every
word of D up to a bound in every split.  Each reads the product rows;
the library reads the states of length 1 and 2 and the triples of D.

``op_core_by_scan`` is O_p(F) as the library found it before it read
O_p off the centric radicals: ``_normality_fault`` tests each subgroup
for normality clause by clause, and ``_op_core_over`` keeps the largest
normal subgroup above a floor that must lie in O_p(F), checking that it
contains every other; it holds for any system closed under restriction,
saturated or not.

``saturated_by_any_member`` asks of each F-class whether some member is
fully automized and receptive, the definition of saturation; the library
asks it of each class's fully normalized member.

``join_closure_lattice`` is the subgroup lattice as the join-closure of
the cyclic subgroups on bitmasks (Holt, Eick and O'Brien, *Handbook of
Computational Group Theory*, 2005), which holds for any group; the
library extends each subgroup of a p-group by elements of its
normalizer, one index-p step at a time.  ``normal_subgroups_by_lattice``
filters that lattice for normality; it lists every subgroup of G first,
seconds from A6 (order 360) on, so it is the reference up to order 120
for ``normal_subgroups``, which joins the normal closures of one element
per conjugacy class.  ``normalizer_by_elements`` and
``aut_s_by_elements`` test every element of S; the library tests one
element per right coset of P, and groups N_S(P) by the map it induces.

``normalizer`` builds N_G(H) by conjugating every element of H by every
element of G, and ``ref_sylow_subgroup`` adjoins at each step the least
p-element of that normalizer outside P, until none is left; the library
never builds N_G(P), and stops when |P| is the p-part of |G|.

``ed_verdict_by_clause`` is the verdict of a product's audit written one
condition per clause, as ``products.ed_verdict`` had it; the library
folds the clauses with ``report.fold``.
"""

import itertools
from operator import itemgetter
from typing import Optional

from locfusion import fusion
from locfusion.fusion import (FusionError, FusionSystem, _NONE,
                              _conjugate_map, _f_conjugates, _keep, _target,
                              centric_radicals, close, fusion_of_locality,
                              inner_maps, is_fully_automized,
                              is_normal_subsystem, is_receptive,
                              is_saturated, is_strongly_closed, is_subsystem,
                              maps_inside, subcentric_subgroups)
from locfusion.locality import _preimage_under, normalizer_carrier
from locfusion.permgroup import (FiniteGroup, SIndex, SizeCapExceeded,
                                 Subgroup, _p_part, bit_positions, compose,
                                 conjugate, domain_mask, getter,
                                 generated_subgroup,
                                 image_mask, inverse, is_characteristic_p,
                                 perm_order)

from graph_oracle import graphs


def normalizer_by_sources(F, Q):
    """N_F(Q) over N_T(Q), for T the Sylow subgroup of F: each map psi of
    F with Q <= src(psi) and psi(Q) = Q, restricted to every subgroup of
    N_T(Q) in its source.  Always a new system."""
    idx = F.index
    n = len(idx.elements)
    q = idx.mask(Q.eset)
    qs = bit_positions(q)
    ns = idx.normalizer(q) & F.t
    subs = [(m, _keep(m, n)) for m in idx.lattice() if m & ns == m]
    restricted = set()
    for src, imgs in F.maps_by_mask().items():
        if src & q != q:
            continue
        inside = [(m, keep) for m, keep in subs if m & src == m]
        for img in imgs:
            if image_mask(img, qs) == q:
                ext = img + _NONE
                restricted.update((m, keep(ext)) for m, keep in inside)
    return FusionSystem(idx, ns, F.p, restricted, F.morphism_cap)


def ref_generated(F, xs):
    """The smallest member of the S-lattice over the set xs."""
    return min((P for P in F.subgroups if xs <= P.eset),
               key=lambda P: P.order).eset


def ref_strong_closure(F, T):
    """Add the images of points until none is new, then generate; repeat
    until both are stable."""
    X = set(T.eset)
    every = graphs(F)
    while True:
        for m in every:
            X |= {m.d[x] for x in X & m.src}
        gen = ref_generated(F, frozenset(X))
        if gen == X:
            return gen
        X = set(gen)


def normal_closure_by_all_maps(F, E):
    """Subsystem of F generated by all F-conjugates of E's morphisms,
    over the strong closure of E's Sylow: each map of E conjugated by
    every map of F whose source contains its source and image, closed
    from the inner maps."""
    that = F.index.mask(ref_strong_closure(F, E.S))
    gens = set(E.maps)
    spans = [(m[0] | _target(m), m) for m in E.maps]
    for src, imgs in F.maps_by_mask().items():
        for span, phi in spans:
            if span & src == span:
                gens.update(_conjugate_map(psi, phi) for psi in imgs)
    return close(F.index.S, F.p, maps_inside(gens, that), F.morphism_cap,
                 t=that)


def strongly_invariant_by_all_maps(F, E):
    """Every F-conjugate of a map of E lies in E: each map of E
    conjugated by every map of F on a subgroup of E's Sylow T whose
    source contains its source and image."""
    t = E.t
    in_e = E.maps
    spans = [(m[0] | _target(m), m) for m in in_e]
    for src, imgs in F.maps_by_mask().items():
        if src & t == src:
            for psi in imgs:
                if any(span & src == span and _conjugate_map(psi, phi)
                       not in in_e for span, phi in spans):
                    return False
    return True


def normal_subsystems_by_every_map(F: FusionSystem) -> list[FusionSystem]:
    """Every subsystem normal in F, as ``fusion.normal_subsystems`` lists
    them: over each strongly closed T in lattice order, the normal
    closure of Inn(T) is grown breadth-first by each map of F inside T
    that a system found misses, with its F-conjugates, and the normal
    systems found are kept."""
    S, p, cap = F.index.S, F.p, F.morphism_cap
    out = []
    for t in (t for t in F.lattice if is_strongly_closed(F, t)):
        inside = maps_inside(F.maps, t)
        inner = FusionSystem(F.index, t, p, inner_maps(S, t), cap)
        found = [normal_closure_by_all_maps(F, inner)]
        seen = {found[0].maps}
        for cur in found:
            for m in sorted(inside - cur.maps):
                nxt = close(S, p, [m, *_f_conjugates(F, [m])], cap,
                            base=cur, t=t)
                if nxt.maps not in seen:
                    seen.add(nxt.maps)
                    found.append(nxt)
        out += [E for E in found if is_normal_subsystem(F, E)]
    return out


def subnormal_chain_by_closures(F: FusionSystem, E: FusionSystem
                                ) -> tuple[bool | str,
                                           tuple[FusionSystem, ...]]:
    """Chain search by descending normal closures.

    Returns (verdict, chain from E up to F); verdict is True, False, or
    "unknown" when a descending link fails the normality audit (the
    weak closure need not be saturated in general).
    """
    if not is_subsystem(F, E):
        return False, ()
    if E == F:
        return True, (F,)
    chain = [F]
    # each normal closure is a subsystem of the last: the chain descends
    while (nxt := normal_closure_by_all_maps(chain[-1], E)) != chain[-1]:
        chain.append(nxt)
    if chain[-1] != E:
        return False, tuple(reversed(chain))
    for below, above in zip(chain[1:], chain):
        if not is_normal_subsystem(above, below):
            return "unknown", tuple(reversed(chain))
    return True, tuple(reversed(chain))


def closed_subsystems_by_exhaust(F: FusionSystem) -> list[FusionSystem]:
    """Every closed subsystem of F over each subgroup T of S that holds
    Inn(T), by exhausting them over each T (SizeCapExceeded past
    ``fusion.SUBSYSTEM_ENUM_CAP`` over one).  Each candidate is closed
    incrementally from the closed system it extends by one map."""
    out = []
    S = F.index.S
    for t in F.lattice:
        inside = frozenset(maps_inside(F.maps, t))
        extra = sorted(inside - inner_maps(S, t))
        systems = [close(S, F.p, [], F.morphism_cap, t=t)]
        seen = {systems[0].maps}
        frontier = list(systems)
        while frontier:
            cur = frontier.pop()
            for m in extra:
                if m in cur.maps:
                    continue
                nxt = close(S, F.p, [m], F.morphism_cap, base=cur, t=t)
                if nxt.maps <= inside and nxt.maps not in seen:
                    seen.add(nxt.maps)
                    systems.append(nxt)
                    frontier.append(nxt)
                    if len(seen) > fusion.SUBSYSTEM_ENUM_CAP:
                        raise SizeCapExceeded(
                            "subsystem enumeration exceeded "
                            f"{fusion.SUBSYSTEM_ENUM_CAP} closed subsystems "
                            "over one subgroup of S")
        out += systems
    return out


def subnormal_subsystems_by_exhaust(F: FusionSystem) -> list[FusionSystem]:
    """All subnormal subsystems of F, as ``enumerate_subnormal_subsystems``
    orders them: the closed subsystems that the chain search by
    descending normal closures finds subnormal."""
    out = [X for X in closed_subsystems_by_exhaust(F)
           if subnormal_chain_by_closures(F, X)[0] is True]
    return sorted(out, key=lambda X: (X.S.order, X.S.elements,
                                      len(X.maps), sorted(X.maps)))


def _normality_fault(F: FusionSystem, q: int) -> Optional[str]:
    """The first clause of normality in F that the subgroup with mask q
    fails, or None.
    "strong_closure": some map sends a point of Q outside Q.
    "extension": some map phi is not the restriction of a map of F on
    <src(phi), Q>.  Once Q is strongly closed, every map defined on Q
    maps Q into Q, and so onto Q, being injective: the extension then
    preserves Q with no further test.  <src, Q> is ``SIndex.join``, and
    the maps over one source are checked together against the
    restrictions of the maps over <src, Q>.
    """
    if not is_strongly_closed(F, q):
        return "strong_closure"
    groups = F.maps_by_mask()
    join = F.index.join
    for src, imgs in groups.items():
        on_src = getter(bit_positions(src))
        keep = set(map(on_src, groups.get(join(src, q), ())))
        if not keep.issuperset(map(on_src, imgs)):
            return "extension"
    return None


def is_normal_subgroup_in(F: FusionSystem, q: int) -> bool:
    """The subgroup Q with mask q is normal in F: Q is strongly closed,
    and every morphism extends to one on <src, Q> that maps Q onto Q."""
    return _normality_fault(F, q) is None


def _op_core_over(F: FusionSystem, floor: int) -> int:
    """The mask of the largest subgroup normal in F, searched only above
    the subgroup with mask ``floor``, which must lie in O_p(F).  Exact
    for any system closed under restriction: the product of two normal
    subgroups is normal, so O_p(F) contains every one.  The uniqueness
    check refuses other map sets.
    """
    normals = [m for m in F.lattice
               if m & floor == floor and is_normal_subgroup_in(F, m)]
    best = max(normals, key=int.bit_count)  # the first of largest order
    if any(m & ~best for m in normals):
        raise FusionError("normal subgroups do not have a unique maximum")
    return best


def op_core_by_scan(F: FusionSystem) -> Subgroup:
    """O_p(F): the largest subgroup normal in F, which contains all the
    others (``_op_core_over`` from the trivial subgroup, mask 1)."""
    return F.index.by_mask[_op_core_over(F, 1)]


def saturated_by_any_member(F):
    """Every F-conjugacy class has a fully automized receptive member,
    each class walked from its first subgroup in lattice order."""
    seen = set()
    for m in F.lattice:
        if m not in seen:
            cls = F.conjugates(m)
            seen.update(cls)
            if not any(is_fully_automized(F, q) and is_receptive(F, q)
                       for q in cls):
                return False
    return True


def local_group(L, P):
    """N_L(P) as a finite group and its id -> permutation map, or None
    when its product is not total."""
    ids = normalizer_carrier(L, P)
    idset, rows = set(ids), L.rows
    for a in ids:
        if not idset.issuperset(map(rows[a].__getitem__, ids)):
            return None
    G, to_perm = L.group_on(ids)
    return FiniteGroup(G.degree, to_perm.values(),
                       max_size=max(len(ids), 1)), to_perm


def linking_per_object(L):
    """(verdict, report) of the linking certificate, with N_L(P) built
    and tested for every object of delta in (order, members) order."""
    report = {"saturated": None, "centric_radicals_in_delta": None,
              "local_groups_characteristic_p": None, "witness": None}
    F = fusion_of_locality(L)
    report["saturated"] = is_saturated(F)

    ok_cr = True
    for P in centric_radicals(F):
        if F.index.mask(P.eset) not in L.delta:
            ok_cr = False
            report["witness"] = f"centric radical of order {P.order} not in delta"
            break
    report["centric_radicals_in_delta"] = ok_cr

    ok_loc = True
    for d in sorted(L.delta, key=lambda m: (m.bit_count(), bit_positions(m))):
        res = local_group(L, L.ids_of(d))
        if res is None:
            ok_loc = False
            report["witness"] = (f"N_L(P) not a group for object of order "
                                 f"{d.bit_count()}")
            break
        H, _ = res
        if not is_characteristic_p(H, L.p):
            ok_loc = False
            report["witness"] = (f"N_L(P) of order {H.order} is not of "
                                 f"characteristic {L.p}")
            break
    report["local_groups_characteristic_p"] = ok_loc
    return bool(report["saturated"]) and ok_cr and ok_loc, report


def locality_route_fault_by_lattice(L):
    """The locality route's precondition fault, or None, from the
    per-object linking certificate and every subcentric subgroup of
    F_S(L)."""
    if not linking_per_object(L)[0]:
        return "locality is not a linking locality"
    F = fusion_of_locality(L)
    if any(F.index.mask(P.eset) not in L.delta
           for P in subcentric_subgroups(F)):
        return "object set does not contain every subcentric subgroup"
    return None


def locality_tables_by_pairs(G, S, delta):
    """(labels, inv, s_ids, rows) of L_delta(G): the carrier is the g of
    G with S cap S^(g^-1) in delta, in the order of G, and row f holds
    the id of f·g, or -1, for every g, where (f, g) is composable
    exactly when the preimage of S_g under the conjugation map of f is
    in delta.  Each product is composed and looked up by its
    permutation."""
    six = SIndex(S)
    dmasks = {six.mask(P.elements) for P in delta}
    carrier = [(g, *six.action(g)) for g in G.elements]
    carrier = [(g, images, dom) for g, images, dom in carrier
               if dom in dmasks]
    labels = tuple(g for g, _, _ in carrier)
    idx = {g: i for i, g in enumerate(labels)}
    rows = tuple(tuple(idx[compose(f, g)]
                       if _preimage_under(images, dom) in dmasks else -1
                       for g, _, dom in carrier)
                 for f, images, _ in carrier)
    return (labels, tuple(idx[inverse(g)] for g in labels),
            tuple(idx[s] for s in S.elements), rows)


def locality_tables(L):
    """(labels, inv, s_ids, rows) of L, each row without its trailing -1,
    as ``locality_tables_by_pairs`` gives them."""
    return L.labels, L.inv, L.s_ids, tuple(r[:-1] for r in L.rows[:-1])


def composite_s_w(L, w):
    """S_w as the domain of the partial maps of w composed on positions."""
    m = tuple(range(len(L.s_ids))) + (-1,)
    for f in w:
        m = tuple(L._pm[f][i] for i in m)
    return sum(1 << i for i, v in enumerate(m[:-1]) if v >= 0)


def _extends_in_delta(L, m, reps):
    """For each mask d of ``reps`` (d -> a map with domain d): is the
    domain of m followed by ``reps[d]``, composed as tuples, in delta?"""
    return {d: domain_mask(tuple(map(r.__getitem__, m))) in L.delta
            for d, r in reps.items()}


def oracle_word_states(L, max_len, letters=None):
    """The (fold value, composite map) states of the domain words over
    ``letters`` (all of L by default) up to ``max_len``, each with its
    minimal length and first word in the order reached, and the domain
    words whose fold is undefined or leaves the letters, in the order
    the walk meets them."""
    letters = range(L.n) if letters is None else sorted(letters)
    inside = set(letters)
    pm, sf, rows = L._pm, L._sf, L.rows
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
            ok = _extends_in_delta(L, m, reps)
            for f in letters:
                if not ok[sf[f]]:
                    continue
                m2 = tuple(map(pm[f].__getitem__, m))
                pi2 = rows[pi][f]
                if pi2 not in inside:
                    failures.append(word + (f,))
                    continue
                st = (pi2, m2)
                if st not in states:
                    states[st] = (length, word + (f,))
                    new[st] = word + (f,)
        frontier = new
    return states, failures


def word_states_by_composites(L):
    """``locality._word_states`` as it was before it decided the delta
    test once per distinct S_f: each letter class's map is composed
    after m, and the domain of every composite is tested.  The states of
    length 1 and 2 in the order first reached, and the failures of
    length 2 and 3 in order."""
    cls, cmaps, rows, delta = L._cls, L._cmaps, L.rows, L.delta
    of_cls = {}  # letter class -> its letters
    for f in range(L.n):
        of_cls.setdefault(cls[f], []).append(f)

    def admitted(m):
        """composite map after m -> the letters m admits that lead to it"""
        after = itemgetter(*m)
        to = {}
        for c, fs in of_cls.items():
            t = after(cmaps[c])
            if domain_mask(t) in delta:
                to.setdefault(t, []).extend(fs)
        return to

    states = {(f, cmaps[cls[f]]): (1, (f,)) for f in range(L.n)}
    reached = {}  # map -> fold values reached
    for f, m in states:
        reached.setdefault(m, set()).add(f)
    failures = []
    blocks = {}  # class -> its blocks
    for x, c in enumerate(cls):
        if c not in blocks:
            blocks[c] = [(reached.setdefault(t, set()), getter(fs), fs, t)
                         for t, fs in ((t, tuple(sorted(fs))) for t, fs
                                       in admitted(cmaps[c]).items())]
        row = rows[x]
        odd = sorted([(f, v, t) for known, at, fs, t in blocks[c]
                      if not known.issuperset(vs := at(row))
                      for f, v in zip(fs, vs) if v not in known])
        for f, v, t in odd:
            if v < 0:
                failures.append((x, f))
            elif v not in reached[t]:
                reached[t].add(v)
                states[v, t] = (2, (x, f))
    reads = {}  # map -> (letters, getter)
    for (p, m), (length, word) in states.items():
        if length == 2:
            if m not in reads:
                fs = sorted(itertools.chain.from_iterable(
                    admitted(m).values()))
                reads[m] = (fs, getter(fs))
            fs, at = reads[m]
            vs = at(rows[p])
            if -1 in vs:
                failures += [word + (f,) for f, v in zip(fs, vs) if v < 0]
    return states, failures


def oracle_associativity(L, states, max_len):
    """The first (left state, right state, letter f), each in order, for
    which (Pi(u)·Pi(v'))·f and Pi(u)·(Pi(v')·f) are not both defined and
    equal, over every pair of states with l1 + l2 + 1 <= ``max_len`` and
    every f whose word u v' f has S_w in delta, with maps composed as
    tuples; the split u|v'f as a witness, or None."""
    rows = L.rows
    items = list(states.items())
    reps = {L._sf[g]: L._pm[g] for g in range(L.n)}
    admits = {}  # composite map -> the letters it admits
    for (p1, m1), (l1, w1) in items:
        for (p2, m2), (l2, w2) in items:
            if l1 + l2 + 1 > max_len:
                continue
            m = tuple(map(m2.__getitem__, m1))
            if m not in admits:
                ok = _extends_in_delta(L, m, reps)
                admits[m] = [f for f in range(L.n) if ok[L._sf[f]]]
            p12 = rows[p1][p2]
            for f in admits[m]:
                left = rows[p12][f]
                if left < 0 or left != rows[p1][rows[p2][f]]:
                    return f"split {w1!r}|{w2 + (f,)!r}: fold != Pi(u)Pi(v)"
    return None


def oracle_s_w(L, states):
    """(passed, witness) of the S_w check on ``states``: the first state
    whose fold value's map differs from its composite map somewhere on
    the composite's domain."""
    for (pi, m), (_, word) in states.items():
        if any(v >= 0 and L._pm[pi][i] != v for i, v in enumerate(m)):
            return False, (f"word {word!r}: S_w image differs from "
                           "S_w^(Pi w)")
    return True, None


def oracle_checks(L, max_len):
    """objectivity_len2, and the fold, S_w and split checks of the walk
    to ``max_len``, each with composed maps; name -> (passed, witness)."""
    out = {}
    ok, wit = True, None
    reps = {L._sf[g]: L._pm[g] for g in range(L.n)}
    for f in range(L.n):
        in_delta = _extends_in_delta(L, L._pm[f], reps)
        for g in range(L.n):
            defined, obj = L.rows[f][g] >= 0, in_delta[L._sf[g]]
            if defined != obj:
                ok, wit = False, (f"pair ({f},{g}): defined={defined}, "
                                  f"S_w in delta={obj}")
                break
        if not ok:
            break
    out["objectivity_len2"] = (ok, wit)
    states, failures = oracle_word_states(L, max_len)
    out["fold_defined_on_domain"] = (
        not failures, f"word {failures[0]!r}" if failures else None)
    out["s_w_through_product"] = oracle_s_w(L, states)
    wit = oracle_associativity(L, states, max_len)
    out["associativity_by_splitting"] = (wit is None, wit)
    return out


def _fold(L, w):
    """Left fold through the rows; None when a step is undefined."""
    x = L.identity
    for f in w:
        x = L.rows[x][f]
        if x < 0:
            return None
    return x


def brute_force_split_fault(L, max_len):
    """The first domain word up to ``max_len`` (by length, then letters)
    whose fold is undefined or differs from Pi(u)Pi(v) in some split
    u|v; None when there is none.  Every word is folded in every split,
    with S_w the domain of the composite map along w."""
    for k in range(1, max_len + 1):
        for w in itertools.product(range(L.n), repeat=k):
            if composite_s_w(L, w) not in L.delta:
                continue
            x = _fold(L, w)
            if x is None:
                return w
            for i in range(1, k):
                u, v = _fold(L, w[:i]), _fold(L, w[i:])
                if u is None or v is None or L.rows[u][v] != x:
                    return w
    return None


def coset_span(idx, h, gens):
    """Mask of the subgroup generated by ``gens``, given the mask ``h``
    of a subgroup H that is generated by some of ``gens``.

    Walks right cosets of H: the coset Hr times a generator g is the
    coset H(rg), so it lies inside the result or is disjoint from it,
    and one lookup per (coset, generator) decides which.  The walk
    yields H·<gens>, which is the subgroup <gens> only under that
    precondition.
    """
    cols = [idx.right(g) for g in gens]
    seen = h
    todo = [bit_positions(h)]
    while todo:
        coset = todo.pop()
        for col in cols:
            if not seen >> col[coset[0]] & 1:
                new = [col[c] for c in coset]
                for c in new:
                    seen |= 1 << c
                todo.append(new)
    return seen


def join_closure_lattice(idx):
    """Masks of every subgroup of the group indexed by ``idx``, ordered
    by (order, members); any finite group, not only a p-group.

    Join-closure of the cyclic subgroups: every subgroup is the join
    of the cyclic subgroups it contains, so joining each subgroup
    found with each cyclic subgroup outside it reaches all of them.
    """
    cyclic = {}  # mask -> one generator's position
    for x in range(1, len(idx.elements)):
        col, m, y = idx.right(x), 1, x
        while y:
            m |= 1 << y
            y = col[y]
        cyclic.setdefault(m, x)
    subs = {1: ()}
    subs.update((m, (x,)) for m, x in cyclic.items())
    todo = list(subs)
    while todo:
        h = todo.pop()
        gens = subs[h]
        for x in cyclic.values():
            if not h >> x & 1:
                j = coset_span(idx, h, gens + (x,))
                if j not in subs:
                    subs[j] = gens + (x,)
                    todo.append(j)
    return sorted(subs, key=lambda m: (m.bit_count(), bit_positions(m)))


def normal_subgroups_by_lattice(G):
    """All normal subgroups, canonically ordered: the members of the
    lattice of G that every generator of G conjugates onto themselves."""
    idx = G.sindex(G.full_subgroup())
    subs = [Subgroup(G, idx.members(m), check=False)
            for m in join_closure_lattice(idx)]
    return [H for H in subs
            if all(conjugate(h, g) in H.eset
                   for g in G.generators for h in H.elements)]


def _normal_closure(idx, conj, x):
    """(mask, generators) of the normal closure of the element at
    position x, with ``conj`` the conjugations by the generators of G:
    a generator is adjoined while some conjugate of one falls outside."""
    gens = [x]
    m = coset_span(idx, 1, gens)
    todo = [x]
    while todo:
        y = todo.pop()
        for c in conj:
            if not m >> c[y] & 1:
                gens.append(c[y])
                m = coset_span(idx, m, gens)
                todo.append(c[y])
    return m, gens


def normal_subgroups(G):
    """All normal subgroups, canonically ordered, without the lattice of
    G: every normal subgroup is generated by the conjugacy classes it
    holds, so it is a join of the normal closures of one element per
    class, and a join of normal subgroups M and N is MN."""
    idx = G.sindex(G.full_subgroup())
    conj = [idx.action(g)[0] for g in G.generators]
    closures = {}  # mask -> its generators
    seen = 0
    for x in range(len(idx.elements)):
        if seen >> x & 1:
            continue
        cls, todo = 1 << x, [x]  # the conjugacy class of x
        while todo:
            y = todo.pop()
            for c in conj:
                if not cls >> c[y] & 1:
                    cls |= 1 << c[y]
                    todo.append(c[y])
        seen |= cls
        m, gens = _normal_closure(idx, conj, x)
        closures.setdefault(m, gens)
    found = {1: [], **closures}
    todo = list(found)
    while todo:
        h = todo.pop()
        for c, gens in closures.items():
            if c & ~h:
                joined = found[h] + gens
                j = coset_span(idx, h, joined)
                if j not in found:
                    found[j] = joined
                    todo.append(j)
    return [Subgroup(G, idx.members(m), check=False)
            for m in sorted(found, key=lambda m: (m.bit_count(),
                                                  bit_positions(m)))]


def normalizer_by_elements(idx, mask):
    """Mask of N_S(P), testing P^s = P for every s in S."""
    ps = bit_positions(mask)
    return sum(1 << s for s in range(len(idx.elements))
               if all(mask >> idx.inner(s)[i] & 1 for i in ps))


def aut_s_by_elements(idx, mask):
    """Aut_S(P): the images of P's positions under each s in N_S(P)."""
    ps = bit_positions(mask)
    return frozenset(tuple([idx.inner(s)[i] for i in ps])
                     for s in bit_positions(normalizer_by_elements(idx, mask)))


def normalizer(G, H):
    elems = [g for g in G.elements
             if all(conjugate(h, g) in H.eset for h in H.elements)]
    return Subgroup(G, elems, check=False)


def ref_sylow_subgroup(G, p):
    P = G.trivial_subgroup()
    while True:
        N = normalizer(G, P)
        x = next((y for y in N.elements if y not in P.eset
                  and perm_order(y) == _p_part(perm_order(y), p)),
                 None)
        if x is None:
            return P
        P = generated_subgroup(G, set(P.elements) | {x})


def ed_verdict_by_clause(c):
    """False when a clause of the ED audit ``c`` fails, else "unknown"
    when the normalizer identity could not be decided, else True; None
    passes for ``ED_normal_in_F``, and for ``N_ED_T_identity`` only
    beside a subnormal ``D_status``."""
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
