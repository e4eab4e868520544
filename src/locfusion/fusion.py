"""Explicit saturated fusion systems over small p-groups.

A morphism lives on the positions of S (``permgroup.SIndex``): the pair
``(src, images)`` of its source mask and, for every position of S, the
position of its image, or -1 off the source.  A morphism P -> phi(P)
stands for every P -> Q with phi(P) <= Q, so Hom(P, Q) is derived by
filtering.  A map is checked once, on its image positions
(``checked_morphism``), and ``FusionSystem.to_json`` writes each
morphism as its element graph.

Morphism sets are closed under composition, restriction and inverses;
equality of fusion systems is equality of morphism sets over the same
p-group.  ``close`` computes that closure, each composite one
``itemgetter`` call, also onto an already closed base: a normal closure
over E's own Sylow T (T strongly closed) is closed onto E.  A system is
closed under restriction, so a map is conjugated only by the maps on the
join of its source and image (``_f_conjugates``).  Systems over
different subgroups (E over T inside F over S, N_F(Q) over N_S(Q)) meet
through ``embedding``, the positions of a subgroup among those of S.
The lattice, joins, N_S(P), Aut_S(P) and the inner maps of S are
memoized on the index of S, and O_p is searched only above a subgroup it
is known to contain.  Aut_F(P) is a permutation group on the elements of
P (``aut_group``).

Every closure runs under a morphism cap.  A system keeps the cap it was
built under, and the closures inside it and its normalizer systems
inherit it, so a caller sets it once, where it builds the ambient system.
A locality likewise keeps the run's cap (``Locality.morphism_cap``), with
its word bound, and F_S(L) and the systems of its partial subgroups are
closed under it.

A system keeps the answers to the questions asked of it
(``FusionSystem._verdicts``): its conjugacy classes, walked once so that
saturation and the centric radicals are decided once per class; N_F(Q)
per Q; whether F is saturated; its centric radicals; and, per subsystem
E (which hashes by its content), whether E is normal in F and the
subnormal chain search.  A system is never changed after it is built
and these answers depend on its maps alone, so they are kept on
the object itself: they live as long as the system does, a run's systems
take their answers with them when they are dropped, and no module holds
state.  Normal closures, and the normalizer systems of the subcentric
test (one per class), are not kept: few are asked for twice, and
keeping them would only hold systems in memory.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Optional, Sequence

from .permgroup import (FiniteGroup, SIndex, Subgroup, all_subgroups,
                        bit_positions, centralizer_in, compose, domain_mask,
                        getter, image_mask, inverse, p_core, _p_part)

DEFAULT_MORPHISM_CAP = 1_000_000

# A morphism: (source mask, image position of every point of S or -1).
Morphism = tuple[int, tuple[int, ...]]
_NONE = (-1,)  # appended to images, so that a -1 entry reads -1


class FusionError(ValueError):
    """Invalid fusion-system construction or precondition."""


class MorphismCapExceeded(FusionError):
    pass


def _keep(mask: int, n: int):
    """Images of a map over n positions, ended by -1, restricted to mask."""
    return getter([i if mask >> i & 1 else n for i in range(n)])


def _target(m: Morphism) -> int:  # the mask of the image
    return image_mask(m[1], bit_positions(m[0]))


def checked_morphism(idx: SIndex, images: Sequence[int]) -> Morphism:
    """The morphism with these image positions in S (``idx``), -1 off its
    points, checked: the map is injective, and its points form a
    subgroup on which it is a homomorphism."""
    src = domain_mask(images)
    ps = bit_positions(src)
    if len({images[i] for i in ps}) != len(ps):
        raise FusionError("map is not injective")
    for j in ps:
        col, img_col = idx.right(j), idx.right(images[j])
        for i in ps:
            if images[col[i]] != img_col[images[i]]:
                raise FusionError("graph is not a homomorphism on a subgroup")
    return src, tuple(images)


def subgroup_lattice(S: Subgroup) -> list[Subgroup]:
    """Every subgroup of S, canonically ordered; kept on the index of S."""
    idx = S.parent.sindex(S)
    if idx.subgroups is None:
        idx.subgroups = all_subgroups(S.parent, within=S)
    return idx.subgroups


def embedding(S: Subgroup, T: Subgroup) -> tuple[tuple[int, ...],
                                                 tuple[int, ...]]:
    """T <= S on the positions of S: ``(up, down)``, where position i of
    T is position ``up[i]`` of S, and position j of S is position
    ``down[j]`` of T, or -1 off T.  Kept on the index of S."""
    idx = S.parent.sindex(S)
    emb = idx.embeddings.get(T.eset)
    if emb is None:
        up = tuple(bit_positions(idx.mask(T.eset)))
        down = [-1] * len(idx.elements)
        for i, j in enumerate(up):
            down[j] = i
        emb = idx.embeddings[T.eset] = (up, tuple(down))
    return emb


def _carry(maps: Iterable[Morphism], new_of_old: tuple,
           old_of_new: tuple) -> set[Morphism]:
    """The maps on other positions: new position i is old position
    ``old_of_new[i]``, old position j is new position ``new_of_old[j]``
    (-1 for none).  Points with a new position must map to such points,
    so the new source depends on the old one alone."""
    pick = getter(old_of_new)
    ext = new_of_old + _NONE
    srcs: dict[int, int] = {}
    out = set()
    for src, images in maps:
        new = getter(pick(images + _NONE))(ext)
        if src not in srcs:
            srcs[src] = domain_mask(new)
        out.add((srcs[src], new))
    return out


class FusionSystem:
    """Fusion system over the p-group S, each morphism held once, on the
    positions of S.  ``morphism_cap`` bounds the closures computed inside
    it; it takes no part in equality, nor do the answers kept on it."""

    def __init__(self, S: Subgroup, p: int, maps: Iterable[Morphism],
                 morphism_cap: int = DEFAULT_MORPHISM_CAP):
        self.S = S
        self.p = p
        self.maps = frozenset(maps)
        self.morphism_cap = morphism_cap
        self.subgroups = subgroup_lattice(S)
        self._sub_by_set = {P.eset: P for P in self.subgroups}
        self._sub_by_mask = dict(zip(self.index.lattice(), self.subgroups))
        self._by_mask: Optional[dict[int, list[tuple[int, ...]]]] = None
        self._reach: Optional[list[int]] = None
        self._classes: dict[frozenset, list[Subgroup]] = {}
        self._over: dict[frozenset, frozenset] = {}
        self._verdicts: dict = {}  # the answers kept on F (module docstring)

    def subgroup(self, eset: frozenset) -> Subgroup:
        try:
            return self._sub_by_set[frozenset(eset)]
        except KeyError:
            raise FusionError("not a subgroup of S") from None

    @property
    def index(self) -> SIndex:
        """S indexed by positions: the index its parent group keeps."""
        return self.S.parent.sindex(self.S)

    def maps_by_mask(self) -> dict[int, list[tuple[int, ...]]]:
        """The images of the maps by the mask of their source; kept."""
        if self._by_mask is None:
            self._by_mask = {}
            for src, images in self.maps:
                self._by_mask.setdefault(src, []).append(images)
        return self._by_mask

    def aut(self, P: Subgroup) -> list[tuple[int, ...]]:
        """Aut_F(P), as the images of each automorphism."""
        m = self.index.mask(P.eset)
        ps = bit_positions(m)
        return [img for img in self.maps_by_mask().get(m, ())
                if image_mask(img, ps) == m]

    def conjugates(self, P: Subgroup) -> list[Subgroup]:
        """The F-conjugates of P, canonically ordered; kept per member.
        ``subgroups`` lists S's lattice in the order of its masks, so each
        conjugate is read off by its mask."""
        cls = self._classes.get(P.eset)
        if cls is None:
            m = self.index.mask(P.eset)
            ps = bit_positions(m)
            masks = {image_mask(img, ps)
                     for img in self.maps_by_mask().get(m, ())} | {m}
            cls = self._classes[P.eset] = [
                self._sub_by_mask[c] for c in sorted(masks, key=bit_positions)]
        return cls

    def classes(self) -> list[list[Subgroup]]:
        """The F-conjugacy classes of the subgroups of S, in the order of
        their first members, each the ``conjugates`` of that member; the
        one walk over the classes, kept on F."""
        key = ("classes",)
        if key not in self._verdicts:
            seen: set[frozenset] = set()
            out = self._verdicts[key] = []
            for P in self.subgroups:
                if P.eset not in seen:
                    out.append(self.conjugates(P))
                    seen.update(Q.eset for Q in out[-1])
        return self._verdicts[key]

    def point_images(self) -> list[int]:
        """For each position of S, the mask of its images; kept."""
        if self._reach is None:
            reach = [0] * len(self.index.elements)
            for src, imgs in self.maps_by_mask().items():
                for i in bit_positions(src):
                    for img in imgs:
                        reach[i] |= 1 << img[i]
            self._reach = reach
        return self._reach

    def maps_over(self, S: Subgroup) -> frozenset:
        """The maps on the positions of S, an overgroup of this system's
        own S (``embedding``); kept per overgroup."""
        if S.eset == self.S.eset:
            return self.maps
        got = self._over.get(S.eset)
        if got is None:
            up, down = embedding(S, self.S)
            got = self._over[S.eset] = frozenset(_carry(self.maps, up, down))
        return got

    def __eq__(self, other):
        return (isinstance(other, FusionSystem) and self.p == other.p
                and self.S.eset == other.S.eset and self.maps == other.maps)

    def __hash__(self):
        return hash((self.p, self.S.eset, self.maps))

    def __repr__(self):
        return f"FusionSystem(|S|={self.S.order}, maps={len(self.maps)})"

    def to_json(self) -> dict:
        """Each morphism as its element graph, in the order of the graphs:
        (source, image) position pairs by source, which is element order."""
        idx = self.index
        els = idx.elements
        subs = sorted({src for src, _ in self.maps} | set(idx.lattice()),
                      key=lambda m: (m.bit_count(), bit_positions(m)))
        sub_idx = {m: i for i, m in enumerate(subs)}
        graphs = sorted(([(i, images[i]) for i in bit_positions(src)], src,
                         images) for src, images in self.maps)
        return {
            "p": self.p,
            "subgroups": [[list(x) for x in idx.members(m)] for m in subs],
            "morphisms": [
                {"src": sub_idx[src], "tgt": sub_idx[_target((src, images))],
                 "map": [[list(els[i]), list(els[j])] for i, j in pairs]}
                for pairs, src, images in graphs
            ],
        }


def maps_inside(F: FusionSystem, T: Subgroup,
                maps: Iterable[Morphism]) -> set[Morphism]:
    """The maps on the positions of F.S whose source and image lie in T,
    on the positions of T (``embedding``)."""
    t = F.index.mask(T.eset)
    up, down = embedding(F.S, T)
    inside = [m for m in maps if (m[0] | _target(m)) & ~t == 0]
    return _carry(inside, down, up)


# -- constructions -----------------------------------------------------------

def _conjugation_maps(S: Subgroup, acting: Sequence) -> set[Morphism]:
    """The maps P -> P^g for P in the S-lattice and g in ``acting`` with
    P^g <= S, a right coset gS at a time (``SIndex.cosets``).

    Conjugation by a member r·s_t of a coset is that of r read through
    inner(t) (``SIndex.member_images``), so it depends on t only through
    the inner automorphism of s_t: each coset is read through the
    distinct inner automorphisms among its members, and the distinct
    maps are collected per domain dom(g) first.  Each distinct map is
    then restricted once to every subgroup inside its domain, one getter
    call per (subgroup, map)."""
    idx = S.parent.sindex(S)
    n = len(idx.elements)
    first: dict[tuple[int, ...], int] = {}  # inner map -> its least t
    same_inner = [first.setdefault(idx.inner(t), t) for t in range(n)]
    by_dom: dict[int, set] = {}
    for images, dom, members in idx.cosets(acting):
        ts = {same_inner[t] for t, _ in members}
        by_dom.setdefault(dom, set()).update(idx.member_images(images, ts))
    # a map restricted to m: its images on m, then the -1 at position n
    subs = [(m, getter(bit_positions(m) + [n])) for m in idx.lattice()]
    graphs: set[tuple[int, tuple[int, ...]]] = set()
    for dom, found in by_dom.items():
        found = [images + _NONE for images in found]
        for m, get in subs:
            if m & dom == m:
                graphs.update(zip(repeat(m), map(get, found)))
    # position j of S is entry |m below j| of a restriction, or its -1
    spread = {m: getter([(m & ((1 << j) - 1)).bit_count() if m >> j & 1
                          else m.bit_count() for j in range(n)])
              for m, _ in subs}
    return {(m, spread[m](images)) for m, images in graphs}


def inner_maps(S: Subgroup) -> frozenset:
    """The maps P -> P^s for P in the S-lattice and s in S; built once and
    kept on the index of S."""
    idx = S.parent.sindex(S)
    if idx.inner_maps is None:
        idx.inner_maps = frozenset(_conjugation_maps(S, S.elements))
    return idx.inner_maps


def close(S: Subgroup, p: int, generators: Iterable[Morphism],
          cap: int = DEFAULT_MORPHISM_CAP,
          base: Optional[FusionSystem] = None) -> FusionSystem:
    """Least fusion system over the p-group S containing ``base`` (the
    inner maps of S by default) and the generators, morphisms on the
    positions of S (``checked_morphism`` checks them).

    ``base`` must be closed under composition, restriction and inversion,
    as every ``FusionSystem`` is, so only the generators and the maps
    they give rise to are queued.  Each is inverted, restricted to the
    subgroups of index p in its source (every subgroup of a p-group ends
    a chain of these), and followed by every map found so far whose
    source is its image: a composite through a larger source is one
    through a restriction.  If b is found after a is taken, a·b is the
    inverse of b^-1·a^-1, formed when b^-1 is taken.  Raises
    MorphismCapExceeded past ``cap`` maps; the result keeps ``cap``.
    """
    if base is not None and base.S.eset != S.eset:
        raise FusionError("base system lives over another subgroup")
    idx = S.parent.sindex(S)
    n = len(idx.elements)
    maps: set[Morphism] = set()
    by_src: dict[int, list] = {}  # source -> images, with a trailing -1
    below: dict[int, list] = {}  # source -> its subgroups of index p
    queue: list[Morphism] = []

    def add(m: Morphism):
        maps.add(m)
        by_src.setdefault(m[0], []).append(m[1] + _NONE)

    def push(m: Morphism):
        if m not in maps:
            add(m)
            queue.append(m)
            if len(maps) > cap:
                raise MorphismCapExceeded(
                    f"fusion closure exceeded {cap} morphisms")

    for m in (inner_maps(S) if base is None else base.maps):
        add(m)
    for g in generators:
        if len(g[1]) != n or g[0] >> n:
            raise FusionError("generator does not live inside S")
        push(g)
    while queue:
        src, images = queue.pop()
        t = _target((src, images))
        inv = [-1] * n
        for i in bit_positions(src):
            inv[images[i]] = i
        push((t, tuple(inv)))
        subs = below.get(src)
        if subs is None:
            size = src.bit_count() // p
            subs = below[src] = [(m, _keep(m, n)) for m in idx.lattice()
                                 if m & src == m and m.bit_count() == size]
        for m, keep in subs:
            push((m, keep(images + _NONE)))
        then = getter(images)
        for other in tuple(by_src.get(t, ())):
            push((src, then(other)))
    return FusionSystem(S, p, maps, cap)


def fusion_of_group(G: FiniteGroup, S: Subgroup,
                    acting: Optional[Sequence] = None, p: int = 0,
                    cap: int = DEFAULT_MORPHISM_CAP) -> FusionSystem:
    """F_S(G): Hom(P, Q) = conjugation maps by elements of G, or only by
    ``acting``, a subgroup M >= S of G, for F_S(M).  ``cap`` is the
    morphism cap of closures inside the result."""
    if p == 0:
        p = _infer_p(S)
    acting = G.elements if acting is None else acting
    return FusionSystem(S, p, _conjugation_maps(S, acting), cap)


def _infer_p(S: Subgroup) -> int:
    n = S.order
    if n == 1:
        raise FusionError("cannot infer p from the trivial group")
    p = 2
    while n % p:
        p += 1
    return p


def fusion_of_partial_subgroup(L, H: Iterable[int]) -> FusionSystem:
    """F_{S∩H}(H) for a partial subgroup H of the locality L (ids of L),
    under L's cap: generated by the conjugation maps between subgroups of
    S∩H induced by elements of H.

    L orders S as its index does (``Locality.s_index``), so the map of
    each class present in H (``Locality._cmaps``) is read onto the
    positions of S∩H through ``embedding``; points sent outside S∩H drop
    out, and the rest form a subgroup, since conjugation is
    multiplicative on S_h.  Each distinct map is checked once."""
    H = frozenset(H)
    S, idx = L.s_group(), L.s_index
    sh = L.mask_of(H.intersection(L.s_ids))
    if sh not in idx.lattice():
        raise FusionError("S∩H is not a subgroup")
    T = S.parent.subgroup(idx.members(sh), check=False)
    up, down = embedding(S, T)
    pick, ext = getter(up), down + _NONE
    maps = {getter(pick(L._cmaps[c]))(ext) for c in {L._cls[h] for h in H}}
    on_t = T.parent.sindex(T)
    return close(T, L.p, [checked_morphism(on_t, m) for m in maps],
                 L.morphism_cap)


def fusion_of_locality(L) -> FusionSystem:
    """F_S(L), kept on the locality."""
    if L._fusion is None:
        L._fusion = fusion_of_partial_subgroup(L, range(L.n))
    return L._fusion


# -- predicates on subgroups -------------------------------------------------

def is_strongly_closed(F: FusionSystem, T: Subgroup) -> bool:
    """No map sends a point of T outside T: read from the images of
    each point of T (``point_images``)."""
    t = F.index.mask(T.eset)
    reach = F.point_images()
    return not any(reach[i] & ~t for i in bit_positions(t))


def strong_closure(F: FusionSystem, T: Subgroup) -> Subgroup:
    """Smallest strongly F-closed subgroup containing T: add the images
    of its points and take the subgroup they generate, until stable."""
    reach = F.point_images()
    x = F.index.mask(T.eset)
    while True:
        y = x
        for i in bit_positions(x):
            y |= reach[i]
        y = F.index.join(1, y)  # mask 1 is the trivial subgroup
        if y == x:
            return F.subgroup(frozenset(F.index.members(x)))
        x = y


def is_centric(F: FusionSystem, P: Subgroup) -> bool:
    return all(centralizer_in(F.S, Q.eset) <= Q.eset
               for Q in F.conjugates(P))


def aut_group(F: FusionSystem, P: Subgroup) -> tuple[FiniteGroup, dict]:
    """Aut_F(P) as a permutation group of degree |P|, with the map from
    the images of each automorphism to its permutation, which moves the
    i-th element of P to the position of its image in P.  Composition
    matches: phi then psi goes to the product of the permutations."""
    ps = bit_positions(F.index.mask(P.eset))
    rank = {j: i for i, j in enumerate(ps)}
    to_perm = {images: tuple([rank[images[j]] for j in ps])
               for images in F.aut(P)}
    return FiniteGroup(P.order, to_perm.values(),
                       max_size=max(len(to_perm), 1)), to_perm


def restriction(F: FusionSystem, images: tuple[int, ...],
                Q: Subgroup) -> Morphism:
    """The map with these images, restricted to Q."""
    q = F.index.mask(Q.eset)
    return q, _keep(q, len(images))(images + _NONE)


def trivial_modulo(F: FusionSystem, images: tuple[int, ...], P: Subgroup,
                   N: Subgroup) -> bool:
    """The map with these images sends each x of P into xN."""
    idx = F.index
    els = idx.elements
    return all(compose(inverse(x), els[images[idx.pos[x]]]) in N.eset
               for x in P.elements)


def is_centric_radical(F: FusionSystem, P: Subgroup) -> bool:
    """Centric with O_p(Out_F(P)) trivial.

    Inn(P) is a normal p-subgroup of Aut_F(P), so O_p(Out_F(P)) is
    O_p(Aut_F(P))/Inn(P), trivial iff |O_p(Aut_F(P))| = |P : Z(P)|."""
    if not is_centric(F, P):
        return False
    A, _ = aut_group(F, P)
    return p_core(A, F.p).order * len(centralizer_in(P.eset, P.eset)) \
        == P.order


def fully_normalized_conjugate(F: FusionSystem, P: Subgroup) -> Subgroup:
    """The first conjugate of P with the largest normalizer in S."""
    idx = F.index
    return max(F.conjugates(P),
               key=lambda Q: idx.normalizer(idx.mask(Q.eset)).bit_count())


def normalizer_system(F: FusionSystem, Q: Subgroup) -> FusionSystem:
    """N_F(Q) over N_S(Q), built once per Q and kept on F.

    By definition, a map phi: P -> P' between subgroups of N_S(Q) lies
    in N_F(Q) when it extends to a map of F on PQ that sends Q onto Q.
    F is closed under restriction, so N_F(Q) consists of the maps psi of
    F on the sources R with Q <= R <= N_S(Q) and psi(Q) = Q, each
    restricted to the P <= N_S(Q) with PQ = R (``SIndex.join``): every
    P <= N_S(Q) is counted under exactly one R.  The maps are carried
    onto the positions of N_S(Q).  When the result is F itself (Q normal
    in F), F is returned, so that the answers kept on F serve for it;
    the result keeps N_{N_F(Q)}(Q) = N_F(Q) in its own store.
    """
    key = ("normalizer", Q.eset)
    if key not in F._verdicts:
        N = F._verdicts[key] = _normalizer_system(F, Q)
        N._verdicts[key] = N
    return F._verdicts[key]


def _normalizer_system(F: FusionSystem, Q: Subgroup) -> FusionSystem:
    idx = F.index
    n = len(idx.elements)
    q = idx.mask(Q.eset)
    qs = bit_positions(q)
    ns = idx.normalizer(q)
    N = F.subgroup(idx.members(ns))
    up, down = embedding(F.S, N)
    # each P <= N_S(Q) under R = PQ: its mask on the positions of N_S(Q)
    # and the getter of the points of P among them (n reads the -1)
    under: dict[int, list] = {}
    for m in idx.lattice():
        if m & ns == m:
            keep = [i if m >> i & 1 else n for i in up]
            under.setdefault(idx.join(q, m), []).append(
                (sum(1 << j for j, i in enumerate(keep) if i < n),
                 getter(keep)))
    ext = down + _NONE
    by_mask = F.maps_by_mask()
    maps = set()
    for r, subs in under.items():
        for img in by_mask.get(r, ()):
            if image_mask(img, qs) == q:
                on_n = getter(img)(ext) + _NONE  # images on N_S(Q)
                maps.update((m, keep(on_n)) for m, keep in subs)
    if ns == (1 << n) - 1 and maps == F.maps:
        return F
    return FusionSystem(N, F.p, maps, F.morphism_cap)


def _normality_fault(F: FusionSystem, Q: Subgroup) -> Optional[str]:
    """The first clause of normality in F that Q fails, or None.
    "strong_closure": some map sends a point of Q outside Q.
    "extension": some map phi is not the restriction of a map of F on
    <src(phi), Q>.  Once Q is strongly closed, every map defined on Q
    maps Q into Q, and so onto Q, being injective: the extension then
    preserves Q with no further test.  <src, Q> is ``SIndex.join``, and
    the maps over one source are checked together against the
    restrictions of the maps over <src, Q>.
    """
    if not is_strongly_closed(F, Q):
        return "strong_closure"
    q = F.index.mask(Q.eset)
    groups = F.maps_by_mask()
    for src, imgs in groups.items():
        on_src = getter(bit_positions(src))
        keep = set(map(on_src, groups.get(F.index.join(src, q), ())))
        if not keep.issuperset(map(on_src, imgs)):
            return "extension"
    return None


def is_normal_subgroup_in(F: FusionSystem, Q: Subgroup) -> bool:
    """Q normal in F: Q is strongly closed, and every morphism extends to
    one on <src, Q> that maps Q onto Q."""
    return _normality_fault(F, Q) is None


def _op_core_over(F: FusionSystem, floor: Subgroup) -> Subgroup:
    """The largest subgroup normal in F, searched only above ``floor``,
    which must lie in O_p(F).  Exact for any system closed under
    restriction: the product of two normal subgroups is normal, so O_p(F)
    contains every one.  The uniqueness check refuses other map sets.
    """
    normals = [Q for Q in F.subgroups
               if floor.eset <= Q.eset and is_normal_subgroup_in(F, Q)]
    best = max(normals, key=lambda Q: Q.order)  # the first of largest order
    if any(not Q.eset <= best.eset for Q in normals):
        raise FusionError("normal subgroups do not have a unique maximum")
    return best


def op_core(F: FusionSystem) -> Subgroup:
    """O_p(F): the largest subgroup normal in F, which contains all the
    others (``_op_core_over`` from the trivial subgroup)."""
    return _op_core_over(F, F.subgroups[0])


def is_subcentric(F: FusionSystem, P: Subgroup) -> bool:
    """O_p(N_F(Q)) is F-centric, for a fully normalized conjugate Q of P.

    Q is normal in N_F(Q), and the product of two normal subgroups is
    normal, so Q <= O_p(N_F(Q)): O_p is searched only above Q.  Overgroups
    of F-centric subgroups are F-centric, so an F-centric P is subcentric
    with no normalizer system built.  Both hold for any system closed
    under restriction.
    """
    if is_centric(F, P):
        return True
    Q = fully_normalized_conjugate(F, P)
    # built, not kept on F: ``subcentric_subgroups`` asks once per class,
    # the locality route once per class outside its object set, and
    # keeping one normalizer system per class only holds memory
    NQ = _normalizer_system(F, Q)
    R = _op_core_over(NQ, NQ.subgroup(Q.eset))
    return is_centric(F, F.subgroup(R.eset))


def _class_members(F: FusionSystem, test) -> list[Subgroup]:
    """The subgroups of S whose class passes ``test``, asked once of its
    first member (``FusionSystem.classes``), in lattice order."""
    keep = {Q.eset for cls in F.classes() if test(F, cls[0]) for Q in cls}
    return [P for P in F.subgroups if P.eset in keep]


def subcentric_subgroups(F: FusionSystem) -> list[Subgroup]:
    """Being subcentric is a property of the class (``is_subcentric``)."""
    return _class_members(F, is_subcentric)


def centric_radicals(F: FusionSystem) -> list[Subgroup]:
    """Decided once per class, kept on F: an iso P -> Q of F carries
    Aut_F(P) onto Aut_F(Q) and Inn(P) onto Inn(Q)."""
    key = ("centric_radicals",)
    if key not in F._verdicts:
        F._verdicts[key] = _class_members(F, is_centric_radical)
    return F._verdicts[key]


# -- saturation --------------------------------------------------------------

def is_fully_automized(F: FusionSystem, P: Subgroup) -> bool:
    aut_s = F.index.aut_s(F.index.mask(P.eset))
    return len(aut_s) == _p_part(len(F.aut(P)), F.p)


def is_receptive(F: FusionSystem, P: Subgroup) -> bool:
    """Every iso phi: Q -> P in F extends to N_phi, the g in N_S(Q) with
    phi^-1 c_g phi in Aut_S(P).  N_phi is a union of the classes of
    ``SIndex.aut_s(Q)``, so it takes one test per c_g in Aut_S(Q)."""
    idx = F.index
    by_mask = F.maps_by_mask()
    p = idx.mask(P.eset)
    ps = bit_positions(p)
    aut_s_p = idx.aut_s(p)
    for Q in F.conjugates(P):
        q = idx.mask(Q.eset)
        qs = bit_positions(q)
        on_q = getter(qs)
        aut_s_q = idx.aut_s(q).items()
        for phi in by_mask.get(q, ()):
            if image_mask(phi, qs) != p:
                continue
            # the index in qs of the preimage of each point of P
            preimage = {phi[i]: k for k, i in enumerate(qs)}
            back = [preimage[i] for i in ps]
            nphi = 0
            for cg, induced in aut_s_q:
                if tuple([phi[cg[k]] for k in back]) in aut_s_p:
                    nphi |= induced
            on_phi = on_q(phi)
            if not any(on_q(psi) == on_phi for psi in by_mask.get(nphi, ())):
                return False
    return True


def is_saturated(F: FusionSystem) -> bool:
    """Every conjugacy class contains a fully automized receptive member.
    Decided once and kept on F."""
    key = ("saturated",)
    if key not in F._verdicts:
        F._verdicts[key] = _is_saturated(F)
    return F._verdicts[key]


def _is_saturated(F: FusionSystem) -> bool:
    """Each class is decided at its fully normalized member P: if every
    such P is fully automized and receptive, F is saturated by
    definition, and in a saturated F every fully normalized P is both
    (Aschbacher–Kessar–Oliver, *Fusion Systems in Algebra and Topology*,
    §I.2).  Sketch: take Q ~ P fully automized and receptive, and an iso
    phi: P -> Q with phi Aut_S(P) phi^-1 <= Aut_S(Q) (Sylow in Aut_F(Q)).
    phi extends to N_S(P) -> N_S(Q), onto as |N_S(P)| is largest: so P is
    fully automized, and maps into P extend through Q and back."""
    return all(is_fully_automized(F, P) and is_receptive(F, P)
               for P in (fully_normalized_conjugate(F, cls[0])
                         for cls in F.classes()))


# -- subsystems --------------------------------------------------------------

def is_subsystem(F: FusionSystem, E: FusionSystem) -> bool:
    return (E.p == F.p and E.S.eset <= F.S.eset
            and E.maps_over(F.S) <= F.maps)


def _conjugate_map(psi: tuple[int, ...], phi: Morphism) -> Morphism:
    """psi-conjugate of phi: x -> psi(phi(psi^-1(x))) on psi(src(phi))."""
    images = [-1] * len(psi)
    for i in bit_positions(phi[0]):
        images[psi[i]] = psi[phi[1][i]]
    return domain_mask(images), tuple(images)


def _f_conjugates(F: FusionSystem, maps: Iterable[Morphism]):
    """Every F-conjugate psi.phi.psi^-1 of every phi in ``maps`` (on the
    positions of F.S).

    A conjugate reads psi only on src(phi) and its image
    (``_conjugate_map``), so only on J = <src(phi), phi(src(phi))>
    (``SIndex.join``).  F is closed under restriction, so every psi of F
    whose source contains J gives the conjugate that its restriction to
    J, a map of F on J, gives; and those maps on J are among them.  So
    phi is conjugated by the maps of F on J alone, as
    ``normalizer_system`` takes the maps on each join PQ alone."""
    idx = F.index
    by_join: dict[int, list[Morphism]] = {}
    for m in maps:
        by_join.setdefault(idx.join(m[0], _target(m)), []).append(m)
    by_mask = F.maps_by_mask()
    for j, phis in by_join.items():
        for psi in by_mask.get(j, ()):
            for phi in phis:
                yield _conjugate_map(psi, phi)


def _is_strongly_invariant(F: FusionSystem, in_e: frozenset) -> bool:
    """Every F-conjugate of a map of E (``in_e``, on the positions of F.S)
    lies in E."""
    return all(m in in_e for m in _f_conjugates(F, in_e))


def is_normal_subsystem(F: FusionSystem, E: FusionSystem) -> bool:
    """T strongly closed, E saturated, strongly F-invariant, and the
    automorphism extension condition on T C_S(T).  Decided once per E
    and kept on F."""
    key = ("normal", E)
    if key not in F._verdicts:
        F._verdicts[key] = _is_normal_subsystem(F, E)
    return F._verdicts[key]


def _is_normal_subsystem(F: FusionSystem, E: FusionSystem) -> bool:
    if not is_subsystem(F, E):
        return False
    T = F.subgroup(E.S.eset)
    if not (is_strongly_closed(F, T) and is_saturated(E)):
        return False
    idx = F.index
    t = idx.mask(T.eset)
    in_e = E.maps_over(F.S)
    if not _is_strongly_invariant(F, in_e):
        return False
    # extension condition on T C_S(T)
    C = centralizer_in(F.S, T.eset)
    tc = idx.mask(compose(a, b) for a in T.eset for b in C)
    ZT = centralizer_in(T.eset, T.eset)
    els = idx.elements
    cs = [idx.pos[x] for x in C]
    on_t = getter(bit_positions(t))
    tcs = bit_positions(tc)
    exts = [psi for psi in F.maps_by_mask().get(tc, ())
            if image_mask(psi, tcs) == tc
            and all(compose(inverse(els[c]), els[psi[c]]) in ZT for c in cs)]
    for src, alpha in in_e:
        if src == t and not any(on_t(psi) == on_t(alpha) for psi in exts):
            return False
    return True


def normal_closure(F: FusionSystem, E: FusionSystem) -> FusionSystem:
    """Subsystem of F generated by all F-conjugates of E's morphisms
    (``_f_conjugates``), over the strong closure of E's Sylow T.

    When T is strongly closed, the closure lies over T itself, and E is
    closed and holds Inn(T), so it is taken onto E (``close`` with
    ``base``): only the conjugates outside E are queued."""
    T = F.subgroup(E.S.eset)
    That = strong_closure(F, T)
    in_e = E.maps_over(F.S)
    gens = set(in_e).union(_f_conjugates(F, in_e))
    return close(That, F.p, maps_inside(F, That, gens), F.morphism_cap,
                 base=E if That.eset == T.eset else None)


def is_subnormal_subsystem(F: FusionSystem, E: FusionSystem
                           ) -> tuple[bool | str, tuple[FusionSystem, ...]]:
    """Chain search by descending normal closures.

    Returns (verdict, chain from E up to F); verdict is True, False, or
    "unknown" when a descending link fails the normality audit (the
    weak closure need not be saturated in general).  Searched once per E
    and kept on F, so the chain is a tuple.
    """
    key = ("subnormal", E)
    if key not in F._verdicts:
        F._verdicts[key] = _is_subnormal_subsystem(F, E)
    return F._verdicts[key]


def _is_subnormal_subsystem(F: FusionSystem, E: FusionSystem
                            ) -> tuple[bool | str, tuple[FusionSystem, ...]]:
    if not is_subsystem(F, E):
        return False, ()
    if E == F:
        return True, (F,)
    chain = [F]
    # each normal closure is a subsystem of the last: the chain descends
    while (nxt := normal_closure(chain[-1], E)) != chain[-1]:
        chain.append(nxt)
    if chain[-1] != E:
        return False, tuple(reversed(chain))
    for below, above in zip(chain[1:], chain):
        if not is_normal_subsystem(above, below):
            return "unknown", tuple(reversed(chain))
    return True, tuple(reversed(chain))
