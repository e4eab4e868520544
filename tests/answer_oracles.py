"""Direct forms of answers the library derives more cheaply, kept as
oracles.

``normalizer_by_sources`` builds N_F(Q) from every map of F whose source
contains Q and which sends Q onto Q, restricted to every subgroup of
N_S(Q) inside its source; the library takes only the maps on sources
between Q and N_S(Q) and restricts each to the P with PQ equal to its
source.  ``linking_per_object`` is the linking certificate with N_L(P)
built as a permutation group (``local_group``) and tested by a Sylow
search for every object of delta; the library tests one object per
F_S(L)-class, on the product rows.  ``locality_route_fault_by_lattice``
asks of every subgroup of S whether it is subcentric; the library asks
once per class outside delta.  ``locality_tables_by_pairs`` builds the
tables of L_delta(G) a product pair at a time, conjugating every element
of G directly and looking each product up by its permutation; the
library conjugates one element per right coset of S and reads a row a
coset at a time off the Cayley table of S.

``join_closure_lattice`` is the subgroup lattice as the join-closure of
the cyclic subgroups on bitmasks (Holt, Eick and O'Brien, *Handbook of
Computational Group Theory*, 2005), which holds for any group; the
library extends each subgroup of a p-group by elements of its
normalizer, one index-p step at a time.  ``normal_subgroups`` filters
that lattice for normality.  ``normalizer_by_elements`` and
``aut_s_by_elements`` test every element of S; the library tests one
element per right coset of P, and groups N_S(P) by the map it induces.
"""

from locfusion.fusion import (FusionSystem, _NONE, _carry, _keep,
                              centric_radicals, embedding, fusion_of_locality,
                              is_saturated, subcentric_subgroups)
from locfusion.locality import _preimage_under, normalizer_carrier
from locfusion.permgroup import (FiniteGroup, SIndex, Subgroup,
                                 bit_positions, compose, conjugate,
                                 image_mask, inverse, is_characteristic_p)


def normalizer_by_sources(F, Q):
    """N_F(Q) over N_S(Q): each map psi of F with Q <= src(psi) and
    psi(Q) = Q, restricted to every subgroup of N_S(Q) in its source and
    carried onto the positions of N_S(Q).  Always a new system."""
    idx = F.index
    n = len(idx.elements)
    q = idx.mask(Q.eset)
    qs = bit_positions(q)
    ns = idx.normalizer(q)
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
    N = F.subgroup(idx.members(ns))
    up, down = embedding(F.S, N)
    return FusionSystem(N, F.p, _carry(restricted, down, up), F.morphism_cap)


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


def normal_subgroups(G):
    """All normal subgroups, canonically ordered: the members of the
    lattice of G that every generator of G conjugates onto themselves."""
    idx = G.sindex(G.full_subgroup())
    subs = [Subgroup(G, idx.members(m), check=False)
            for m in join_closure_lattice(idx)]
    return [H for H in subs
            if all(conjugate(h, g) in H.eset
                   for g in G.generators for h in H.elements)]


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
