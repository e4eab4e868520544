"""Explicit saturated fusion systems over small p-groups.

Every system of a run lives on the positions of the run's one p-group S
(``permgroup.SIndex``): a system over a subgroup T of S (E over T, D
over R, N_F(Q) over N_S(Q), ED over TR) keeps S's index and T as the
mask ``t``.  A morphism is the pair ``(src, images)`` of its source mask
and, for every position of S, the position of its image or -1, so the
maps of a run's systems compare, compose and conjugate as they stand,
and a subgroup is named by its mask.  T's lattice, N_T(P), Aut_T(P) and
C_T(P) are S's, masked by t; S's lattice (with the ``Subgroup`` of each
mask, ``subgroup_lattice``), joins, N_S(P), Aut_S(P) and inner maps are
memoized on its index.  T's canonical order is S's restricted to T, so
``FusionSystem.to_json`` writes each morphism's element graph as it
would on T's own positions.  A morphism P -> phi(P) stands for every
P -> Q with phi(P) <= Q, and is checked once (``checked_morphism``).

Morphism sets are closed under composition, restriction and inverses;
equal systems have the same maps over the same subgroup of the same S.
``close`` computes that closure, also onto an already closed base: the
search for normal subsystems closes one F-orbit of Alperin's
generators at a time onto a system it has found
(``normal_subsystems``).  A map is conjugated only by the maps on the
join of its source and image (``_f_conjugates``), O_p of a saturated
system is read off its centric radicals (``op_core``), and Aut_F(P) is
a permutation group (``aut_group``).  E is subnormal in F exactly when
E = F or E is subnormal in a proper normal subsystem of F
(``subnormal_subsystems``).

Every closure runs under a morphism cap.  A system keeps the cap it was
built under, and the closures inside it and its normalizer systems
inherit it; a locality keeps the run's cap (``Locality.morphism_cap``)
for F_S(L) and the systems of its partial subgroups.

A system keeps the answers to the questions asked of it, each question
declared with ``kept``: its maps by source, the conjugates of each
subgroup and the one walk over its conjugacy classes (so that
saturation, subcentricity and the centric radicals are decided once per
class), the images of each point, N_F(Q) per Q (the subcentric test
asks it too), whether F is saturated, its centric radicals, whether a
subsystem E (which hashes by its content) is normal in F, and its normal
and subnormal subsystems.  A run rebuilds equal systems as separate
objects (F, N_F(T), ED, N_ED(T) and the links of their subnormal
chains), so the answers are kept per system, not per object: every
system on one index of S with the same t, p, maps and morphism cap
shares one store, kept on the index (``SIndex.answers``).  The cap is
part of the key because a kept computation can raise
MorphismCapExceeded under a smaller cap.  A system is never changed
after it is built, so the store lives as long as the index, and no
module holds state.
"""

from __future__ import annotations

from functools import cached_property, wraps
from itertools import repeat
from typing import Iterable, Optional, Sequence

from .permgroup import (FiniteGroup, SIndex, SizeCapExceeded, Subgroup,
                        all_subgroups, bit_positions, domain_mask, getter,
                        image_mask, p_core, _p_part)

DEFAULT_MORPHISM_CAP = 1_000_000
# the most closed subsystems enumerated over one subgroup of S
SUBSYSTEM_ENUM_CAP = 2000

# A morphism: (source mask, image position of every point of S or -1).
Morphism = tuple[int, tuple[int, ...]]
_NONE = (-1,)  # appended to images, so that a -1 entry reads -1


_ABSENT = object()  # no answer kept yet; a kept answer may be None


def kept(ask):
    """``ask(x, *args)``, answered once per ``args`` and kept in
    ``x._verdicts`` under a key that only this wrapper builds; a kept
    None or False is an answer like any other.  x must not change after
    it is built, and each argument must hash by its content (a
    ``FusionSystem`` does).  A system's ``_verdicts`` is the store it
    shares with every equal system on its index under the same cap, so
    an answer may hold an equal system rather than x itself.  The
    computation is read as ``__wrapped__`` when it runs, so a test can
    count the computations behind a question.

    Four stores stay as they are.  ``SIndex``'s tables and
    ``Locality.preimage`` are per-lookup kernel tables on hot paths
    (5,159 ``SIndex.inner`` calls in ``fusion saturate-check`` on S6xC2,
    3,692 ``preimage`` calls in ``theorem1`` and ``restriction`` on S6),
    where a call through this wrapper would cost more than the lookup.  ``Locality._s`` is handed to sub-localities, so that they
    share one index.  The ``partial_subgroups`` memos key on id
    collections turned into frozensets first: a caller may pass a list.
    And ``cached_property`` attributes stay attributes."""
    def keeper(x, *args):
        key = (keeper, *args)
        got = x._verdicts.get(key, _ABSENT)
        if got is _ABSENT:
            got = x._verdicts[key] = keeper.__wrapped__(x, *args)
        return got
    return wraps(ask)(keeper)


class FusionError(ValueError):
    """Invalid fusion-system construction or precondition."""


class MorphismCapExceeded(FusionError):
    pass


def _keep(mask: int, n: int):
    """Images of a map over n positions, ended by -1, restricted to mask."""
    return getter([i if mask >> i & 1 else n for i in range(n)])


def _into(t: int, n: int):
    """images -> the images of the points of t that the map keeps in t,
    -1 elsewhere: the map read between subgroups of the subgroup t."""
    keep = _keep(t, n)
    stay = tuple([j if t >> j & 1 else -1 for j in range(n)]) + _NONE
    return lambda images: getter(keep(images + _NONE))(stay)


def _target(m: Morphism) -> int:  # the mask of the image
    return image_mask(m[1], bit_positions(m[0]))


def _full(idx: SIndex) -> int:  # the mask of all of S
    return (1 << len(idx.elements)) - 1


def _same_s(a: SIndex, b: SIndex) -> bool:
    return a is b or a.elements == b.elements


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
    """Every subgroup of S, canonically ordered: one list per S, kept on
    the index of S with the mask of each member (``SIndex.masks``) and
    the member of each mask (``SIndex.by_mask``)."""
    idx = S.parent.sindex(S)
    if idx.subgroups is None:
        idx.subgroups = all_subgroups(S.parent, within=S)
        idx.by_mask = dict(zip(idx.lattice(), idx.subgroups))
        idx.masks = {P.eset: m for m, P in idx.by_mask.items()}
    return idx.subgroups


class FusionSystem:
    """Fusion system over the subgroup T of S with mask ``t``, each
    morphism held once, on the positions of S (``index``); ``S`` is T as
    a subgroup.  ``morphism_cap`` bounds the closures computed inside it;
    it takes no part in equality, nor do the answers kept for it.  Those
    are shared with every equal system on the same index under the same
    cap (``_verdicts``)."""

    def __init__(self, index: SIndex, t: int, p: int,
                 maps: Iterable[Morphism],
                 morphism_cap: int = DEFAULT_MORPHISM_CAP):
        if index.subgroups is None:
            subgroup_lattice(index.S)
        self.index = index
        self.t = t
        self.S = index.by_mask[t]
        self.p = p
        self.maps = frozenset(maps)
        self.morphism_cap = morphism_cap

    @cached_property
    def _verdicts(self) -> dict:
        """The answers kept for F (``kept``): one dict per (t, p, maps,
        cap) on F's index, taken on the first question, so a system never
        asked anything puts nothing in ``SIndex.answers``."""
        key = (self.t, self.p, self.maps, self.morphism_cap)
        return self.index.answers.setdefault(key, {})

    @cached_property
    def lattice(self) -> list[int]:
        """The masks of the subgroups of T, in the order of S's lattice."""
        t = self.t
        return [m for m in self.index.lattice() if m & t == m]

    @cached_property
    def subgroups(self) -> list[Subgroup]:
        """The subgroups of T, read off S's list."""
        return list(map(self.index.by_mask.__getitem__, self.lattice))

    def mask_of(self, P: Subgroup) -> int:
        """The mask of a subgroup of S."""
        return self.index.masks[P.eset]

    def subgroup(self, eset: frozenset) -> Subgroup:
        """The subgroup of T with these elements."""
        m = self.index.masks.get(frozenset(eset))
        if m is None or m & ~self.t:
            raise FusionError("not a subgroup of S")
        return self.index.by_mask[m]

    @kept
    def maps_by_mask(self) -> dict[int, list[tuple[int, ...]]]:
        """The images of the maps by the mask of their source."""
        by_mask: dict[int, list[tuple[int, ...]]] = {}
        for src, images in self.maps:
            by_mask.setdefault(src, []).append(images)
        return by_mask

    def aut(self, m: int) -> list[tuple[int, ...]]:
        """Aut_F(P) for the subgroup P with mask m, as the images of each
        automorphism."""
        ps = bit_positions(m)
        return [img for img in self.maps_by_mask().get(m, ())
                if image_mask(img, ps) == m]

    @kept
    def conjugates(self, m: int) -> list[int]:
        """The F-conjugates of the subgroup with mask m, in lattice order."""
        ps = bit_positions(m)
        masks = {image_mask(img, ps)
                 for img in self.maps_by_mask().get(m, ())} | {m}
        return sorted(masks, key=bit_positions)

    @kept
    def classes(self) -> list[list[int]]:
        """The F-conjugacy classes of the subgroups of T, in the order of
        their first members, each the ``conjugates`` of that member: the
        one walk over the classes."""
        seen: set[int] = set()
        out = []
        for m in self.lattice:
            if m not in seen:
                out.append(self.conjugates(m))
                seen.update(out[-1])
        return out

    @kept
    def point_images(self) -> list[int]:
        """For each position of S, the mask of its images."""
        reach = [0] * len(self.index.elements)
        for src, imgs in self.maps_by_mask().items():
            for i in bit_positions(src):
                for img in imgs:
                    reach[i] |= 1 << img[i]
        return reach

    def __eq__(self, other):
        return (isinstance(other, FusionSystem) and self.p == other.p
                and self.t == other.t and self.maps == other.maps
                and _same_s(self.index, other.index))

    def __hash__(self):
        return hash((self.p, self.t, self.maps))

    def __repr__(self):
        return f"FusionSystem(|S|={self.S.order}, maps={len(self.maps)})"

    def to_json(self) -> dict:
        """Each morphism as its element graph, in the order of the graphs:
        (source, image) position pairs by source, which is element order."""
        idx = self.index
        els = idx.elements
        subs = sorted({src for src, _ in self.maps} | set(self.lattice),
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


def maps_inside(maps: Iterable[Morphism], t: int) -> set[Morphism]:
    """The maps whose source and image lie in the subgroup with mask t."""
    return {m for m in maps if not (m[0] | _target(m)) & ~t}


# -- constructions -----------------------------------------------------------

def _conjugation_maps(idx: SIndex, t: int, acting: Sequence) -> set[Morphism]:
    """The maps P -> P^g for P in the lattice of the subgroup T of S with
    mask t and g in ``acting`` with P^g <= T, on the positions of S, a
    right coset gS at a time (``SIndex.cosets``).

    Conjugation by a member r·s_u of a coset is that of r read through
    inner(u) (``SIndex.member_images``), so it depends on u only through
    the inner automorphism of s_u: each coset is read through the
    distinct inner automorphisms among its members, and the distinct
    maps are collected per domain dom(g) first.  Below S, each distinct
    map keeps only the points of T that it sends into T (``_into``).
    Each distinct map is then restricted once to every subgroup of T
    inside its domain, one getter call per (subgroup, map)."""
    n = len(idx.elements)
    first: dict[tuple[int, ...], int] = {}  # inner map -> its least u
    same_inner = [first.setdefault(idx.inner(u), u) for u in range(n)]
    by_dom: dict[int, set] = {}
    for images, dom, members in idx.cosets(acting):
        us = {same_inner[u] for u, _ in members}
        by_dom.setdefault(dom, set()).update(idx.member_images(images, us))
    if t != _full(idx):
        into, by_t = _into(t, n), {}
        for found in by_dom.values():
            for images in map(into, found):
                by_t.setdefault(domain_mask(images), set()).add(images)
        by_dom = by_t
    # a map restricted to m: its images on m, then the -1 at position n
    subs = [(m, getter(bit_positions(m) + [n])) for m in idx.lattice()
            if m & t == m]
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


def inner_maps(S: Subgroup, t: Optional[int] = None) -> frozenset:
    """The maps P -> P^s for P in the lattice of the subgroup T of S with
    mask t (all of S by default) and s in T, on the positions of S; built
    once per T and kept on the index of S."""
    idx = S.parent.sindex(S)
    t = _full(idx) if t is None else t
    got = idx.inner_maps.get(t)
    if got is None:
        got = idx.inner_maps[t] = frozenset(
            _conjugation_maps(idx, t, idx.members(t)))
    return got


def close(S: Subgroup, p: int, generators: Iterable[Morphism],
          cap: int = DEFAULT_MORPHISM_CAP,
          base: Optional[FusionSystem] = None,
          t: Optional[int] = None) -> FusionSystem:
    """Least fusion system over the subgroup T of the p-group S with mask
    ``t`` (all of S by default) containing ``base`` (the inner maps of T
    by default) and the generators, morphisms on the positions of S
    (``checked_morphism`` checks them).

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
    idx = S.parent.sindex(S)
    n = len(idx.elements)
    t = _full(idx) if t is None else t
    if base is not None and (base.t != t or not _same_s(base.index, idx)):
        raise FusionError("base system lives over another subgroup")
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

    for m in (inner_maps(S, t) if base is None else base.maps):
        add(m)
    for g in generators:
        if len(g[1]) != n or g[0] & ~t or _target(g) & ~t:
            raise FusionError("generator does not live inside S")
        push(g)
    while queue:
        src, images = queue.pop()
        tgt = _target((src, images))
        inv = [-1] * n
        for i in bit_positions(src):
            inv[images[i]] = i
        push((tgt, tuple(inv)))
        subs = below.get(src)
        if subs is None:
            size = src.bit_count() // p
            subs = below[src] = [(m, _keep(m, n)) for m in idx.lattice()
                                 if m & src == m and m.bit_count() == size]
        for m, keep in subs:
            push((m, keep(images + _NONE)))
        then = getter(images)
        for other in tuple(by_src.get(tgt, ())):
            push((src, then(other)))
    return FusionSystem(idx, t, p, maps, cap)


def fusion_of_group(G: FiniteGroup, S: Subgroup,
                    p: int, acting: Optional[Sequence] = None,
                    cap: int = DEFAULT_MORPHISM_CAP,
                    t: Optional[int] = None) -> FusionSystem:
    """F_T(G) for the subgroup T of S with mask t (all of S by default),
    on the positions of S: Hom(P, Q) = conjugation maps by elements of
    G, or only by ``acting``, a subgroup M of G with T Sylow in M, for
    F_T(M).  ``cap`` is the morphism cap of closures inside the
    result."""
    idx = S.parent.sindex(S)
    t = _full(idx) if t is None else t
    acting = G.elements if acting is None else acting
    return FusionSystem(idx, t, p, _conjugation_maps(idx, t, acting), cap)


def fusion_of_partial_subgroup(L, H: Iterable[int]) -> FusionSystem:
    """F_{S∩H}(H) for a partial subgroup H of the locality L (ids of L),
    under L's cap: generated by the conjugation maps between subgroups of
    S∩H induced by elements of H.

    L orders S as its index does (``Locality.s_index``), so the map of
    each class present in H (``Locality._cmaps``) is a map on the
    positions of S; the points of S∩H it sends outside S∩H drop out
    (``_into``), and the rest form a subgroup, since conjugation is
    multiplicative on S_h.  Each distinct map is checked once."""
    H = frozenset(H)
    idx = L.s_index
    sh = L.mask_of(H.intersection(L.s_ids))
    if sh not in idx.lattice():
        raise FusionError("S∩H is not a subgroup")
    into = _into(sh, len(idx.elements))
    maps = {into(L._cmaps[c]) for c in {L._cls[h] for h in H}}
    return close(L.s_group(), L.p, [checked_morphism(idx, m) for m in maps],
                 L.morphism_cap, t=sh)


@kept
def fusion_of_locality(L) -> FusionSystem:
    """F_S(L), kept on the locality."""
    return fusion_of_partial_subgroup(L, range(L.n))


# -- predicates on subgroups, each given by its mask --------------------------

def is_strongly_closed(F: FusionSystem, t: int) -> bool:
    """No map sends a point of the subgroup with mask t outside it: read
    from the images of each of its points (``point_images``)."""
    reach = F.point_images()
    return not any(reach[i] & ~t for i in bit_positions(t))


def _centralizer(F: FusionSystem, q: int) -> int:
    """C_T(Q) for T the Sylow subgroup of F: the elements of N_S(Q) that
    induce the identity on Q (``SIndex.aut_s``), inside T."""
    return F.index.aut_s(q)[tuple(bit_positions(q))] & F.t


def is_centric(F: FusionSystem, m: int) -> bool:
    """C_T(Q) <= Q for every F-conjugate Q of the subgroup with mask m."""
    return not any(_centralizer(F, q) & ~q for q in F.conjugates(m))


def aut_group(F: FusionSystem, m: int) -> tuple[FiniteGroup, dict]:
    """Aut_F(P) for the subgroup P with mask m, as a permutation group of
    degree |P|, with the map from the images of each automorphism to its
    permutation, which moves the i-th element of P to the position of its
    image in P.  Composition matches: phi then psi goes to the product of
    the permutations."""
    ps = bit_positions(m)
    rank = {j: i for i, j in enumerate(ps)}
    to_perm = {images: tuple([rank[images[j]] for j in ps])
               for images in F.aut(m)}
    return FiniteGroup(len(ps), to_perm.values(),
                       max_size=max(len(to_perm), 1)), to_perm


def restriction(images: tuple[int, ...], q: int) -> Morphism:
    """The map with these images, restricted to the subgroup with mask q."""
    return q, _keep(q, len(images))(images + _NONE)


def trivial_modulo(F: FusionSystem, images: tuple[int, ...], p: int,
                   n: int) -> bool:
    """The map with these images sends each x of the subgroup with mask p
    into xN, for N the subgroup with mask n: into the x·z, z in N, read
    off the Cayley columns of N."""
    cols = [F.index.right(z) for z in bit_positions(n)]
    return all(any(col[i] == images[i] for col in cols)
               for i in bit_positions(p))


def is_centric_radical(F: FusionSystem, m: int) -> bool:
    """Centric with O_p(Out_F(P)) trivial.

    Inn(P) is a normal p-subgroup of Aut_F(P), so O_p(Out_F(P)) is
    O_p(Aut_F(P))/Inn(P), trivial iff |O_p(Aut_F(P))| = |P : Z(P)|; for
    P centric, Z(P) = C_T(P)."""
    if not is_centric(F, m):
        return False
    A, _ = aut_group(F, m)
    return p_core(A, F.p).order * _centralizer(F, m).bit_count() == \
        m.bit_count()


def fully_normalized_conjugate(F: FusionSystem, m: int) -> int:
    """The first conjugate of the subgroup with mask m with the largest
    normalizer in T."""
    idx, t = F.index, F.t
    return max(F.conjugates(m),
               key=lambda q: (idx.normalizer(q) & t).bit_count())


@kept
def normalizer_system(F: FusionSystem, q: int) -> FusionSystem:
    """N_F(Q) over N_T(Q), built once per Q (mask q) and kept on F.

    By definition, a map phi: P -> P' between subgroups of N_T(Q) lies
    in N_F(Q) when it extends to a map of F on PQ that sends Q onto Q.
    F is closed under restriction, so N_F(Q) consists of the maps psi of
    F on the sources R with Q <= R <= N_T(Q) and psi(Q) = Q, each
    restricted to the P <= N_T(Q) with PQ = R (``SIndex.join``): every
    P <= N_T(Q) is counted under exactly one R.  Such a psi sends P into
    N_T(psi(Q)) = N_T(Q), so the restrictions are maps of N_T(Q) as they
    stand.  When the result is F itself (Q normal in F), F is returned:
    equal systems share their answers anyway (``FusionSystem._verdicts``),
    so this only saves a second object holding the same maps.
    """
    idx = F.index
    n = len(idx.elements)
    qs = bit_positions(q)
    ns = idx.normalizer(q) & F.t
    # each P <= N_T(Q) under R = PQ, with the getter of its points
    under: dict[int, list] = {}
    for m in idx.lattice():
        if m & ns == m:
            under.setdefault(idx.join(q, m), []).append((m, _keep(m, n)))
    by_mask = F.maps_by_mask()
    maps = set()
    for r, subs in under.items():
        for img in by_mask.get(r, ()):
            if image_mask(img, qs) == q:
                ext = img + _NONE
                maps.update((m, keep(ext)) for m, keep in subs)
    if ns == F.t and maps == F.maps:
        return F
    return FusionSystem(idx, ns, F.p, maps, F.morphism_cap)


def op_core(F: FusionSystem) -> int:
    """The mask of O_p(F), the largest subgroup normal in F, for F
    saturated: the largest strongly closed subgroup of the intersection
    of F's centric radicals (``centric_radicals``, kept on F).

    For saturated F, Q is normal in F exactly when Q is strongly closed
    and lies in every F-centric radical (Aschbacher–Kessar–Oliver,
    *Fusion Systems in Algebra and Topology*, §I.4).  If Q is both, each
    Aut_F(P) of a centric radical P maps Q onto Q, and so does its
    restriction to any subgroup RQ <= P; by Alperin's theorem every map
    of F is a composite of restrictions of such automorphisms, so each
    extends to one on <src, Q> that maps Q onto Q.  Conversely, for Q
    normal in F and P a centric radical, every alpha of Aut_F(P) extends
    to one on PQ that maps Q onto Q, so Aut_{N_Q(P)}(P) is a normal
    p-subgroup of Aut_F(P), inside Inn(P): N_Q(P) <= P C_T(P) = P, so
    N_{PQ}(P) = P, and then PQ = P.  Normal subgroups of F generate a
    normal subgroup, so the candidates have a unique largest member, the
    first met from the top of the lattice."""
    x = F.t
    for P in centric_radicals(F):
        x &= F.mask_of(P)
    return next(m for m in reversed(F.lattice)
                if m & x == m and is_strongly_closed(F, m))


def is_subcentric(F: FusionSystem, m: int) -> bool:
    """O_p(N_F(Q)) is F-centric, for a fully normalized conjugate Q of P,
    for F saturated (FusionError otherwise).

    N_F(Q) at a fully normalized Q of a saturated F is saturated
    (Aschbacher–Kessar–Oliver, Thm I.5.5), so ``op_core`` applies to it.
    Overgroups of F-centric subgroups are F-centric, so an F-centric P
    is subcentric with no normalizer system built."""
    if not is_saturated(F):
        raise FusionError("subcentric subgroups of a non-saturated system")
    if is_centric(F, m):
        return True
    q = fully_normalized_conjugate(F, m)
    return is_centric(F, op_core(normalizer_system(F, q)))


def _class_members(F: FusionSystem, test) -> list[Subgroup]:
    """The subgroups of T whose class passes ``test``, asked once of its
    first member (``FusionSystem.classes``), in lattice order."""
    keep = {m for cls in F.classes() if test(F, cls[0]) for m in cls}
    return [F.index.by_mask[m] for m in F.lattice if m in keep]


def subcentric_subgroups(F: FusionSystem) -> list[Subgroup]:
    """Being subcentric is a property of the class (``is_subcentric``)."""
    return _class_members(F, is_subcentric)


@kept
def centric_radicals(F: FusionSystem) -> list[Subgroup]:
    """Decided once per class, kept on F: an iso P -> Q of F carries
    Aut_F(P) onto Aut_F(Q) and Inn(P) onto Inn(Q)."""
    return _class_members(F, is_centric_radical)


# -- saturation --------------------------------------------------------------

def _aut_t(F: FusionSystem, m: int) -> dict[tuple[int, ...], int]:
    """Aut_T(P) for T the Sylow subgroup of F, by classes: the classes of
    Aut_S(P) (``SIndex.aut_s``) that meet T, cut down to T."""
    t = F.t
    return {a: s & t for a, s in F.index.aut_s(m).items() if s & t}


def is_fully_automized(F: FusionSystem, m: int) -> bool:
    return len(_aut_t(F, m)) == _p_part(len(F.aut(m)), F.p)


def is_receptive(F: FusionSystem, m: int) -> bool:
    """Every iso phi: Q -> P in F, for P the subgroup with mask m, extends
    to N_phi, the g in N_T(Q) with phi^-1 c_g phi in Aut_T(P).  N_phi is a
    union of the classes of Aut_T(Q) (``_aut_t``), so it takes one test
    per c_g in Aut_T(Q)."""
    by_mask = F.maps_by_mask()
    ps = bit_positions(m)
    aut_t_p = _aut_t(F, m)
    for q in F.conjugates(m):
        qs = bit_positions(q)
        on_q = getter(qs)
        aut_t_q = _aut_t(F, q).items()
        for phi in by_mask.get(q, ()):
            if image_mask(phi, qs) != m:
                continue
            # the index in qs of the preimage of each point of P
            preimage = {phi[i]: k for k, i in enumerate(qs)}
            back = [preimage[i] for i in ps]
            nphi = 0
            for cg, induced in aut_t_q:
                if tuple([phi[cg[k]] for k in back]) in aut_t_p:
                    nphi |= induced
            on_phi = on_q(phi)
            if not any(on_q(psi) == on_phi for psi in by_mask.get(nphi, ())):
                return False
    return True


@kept
def is_saturated(F: FusionSystem) -> bool:
    """Every conjugacy class contains a fully automized receptive member.
    Decided once and kept on F.

    Each class is decided at its fully normalized member P: if every
    such P is fully automized and receptive, F is saturated by
    definition, and in a saturated F every fully normalized P is both
    (Aschbacher–Kessar–Oliver, *Fusion Systems in Algebra and Topology*,
    §I.2).  Sketch: take Q ~ P fully automized and receptive, and an iso
    phi: P -> Q with phi Aut_S(P) phi^-1 <= Aut_S(Q) (Sylow in Aut_F(Q)).
    phi extends to N_S(P) -> N_S(Q), onto as |N_S(P)| is largest: so P is
    fully automized, and maps into P extend through Q and back."""
    return all(is_fully_automized(F, q) and is_receptive(F, q)
               for q in (fully_normalized_conjugate(F, cls[0])
                         for cls in F.classes()))


# -- subsystems --------------------------------------------------------------

def is_subsystem(F: FusionSystem, E: FusionSystem) -> bool:
    return (E.p == F.p and not E.t & ~F.t
            and _same_s(E.index, F.index) and E.maps <= F.maps)


def _conjugate_map(psi: tuple[int, ...], phi: Morphism) -> Morphism:
    """psi-conjugate of phi: x -> psi(phi(psi^-1(x))) on psi(src(phi))."""
    images = [-1] * len(psi)
    for i in bit_positions(phi[0]):
        images[psi[i]] = psi[phi[1][i]]
    return domain_mask(images), tuple(images)


def _f_conjugates(F: FusionSystem, maps: Iterable[Morphism]):
    """Every F-conjugate psi.phi.psi^-1 of every phi in ``maps``.

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
    """Every F-conjugate of a map of E (``in_e``) lies in E."""
    return all(m in in_e for m in _f_conjugates(F, in_e))


@kept
def is_normal_subsystem(F: FusionSystem, E: FusionSystem) -> bool:
    """T strongly closed, E saturated, strongly F-invariant, and the
    automorphism extension condition on T C_S(T).  Decided once per E
    and kept on F."""
    if not is_subsystem(F, E):
        return False
    t = E.t
    if not (is_strongly_closed(F, t) and is_saturated(E)):
        return False
    if not _is_strongly_invariant(F, E.maps):
        return False
    # extension condition on T C_S(T): the automorphisms of T C_S(T) in
    # F that move each c of C_S(T) inside c Z(T)
    idx = F.index
    c = _centralizer(F, t)
    tc = idx.join(t, c)
    zs = [idx.right(z) for z in bit_positions(c & t)]  # Z(T)
    cs = bit_positions(c)
    tcs = bit_positions(tc)
    on_t = getter(bit_positions(t))
    exts = {on_t(psi) for psi in F.maps_by_mask().get(tc, ())
            if image_mask(psi, tcs) == tc
            and all(any(z[i] == psi[i] for z in zs) for i in cs)}
    return all(on_t(alpha) in exts
               for alpha in E.maps_by_mask().get(t, ()))


@kept
def normal_subsystems(F: FusionSystem) -> list[FusionSystem]:
    """Every subsystem normal in F, by strongly closed T <= S in lattice
    order; SizeCapExceeded past ``SUBSYSTEM_ENUM_CAP`` found over one T.

    Over each T the search adds one F-orbit of candidate generators at a
    time.  A normal E over T is saturated, so by Alperin's theorem
    (Aschbacher–Kessar–Oliver, *Fusion Systems in Algebra and
    Topology*, Thm I.3.5) it is generated by Inn(T) and the
    automorphisms in E of its E-centric subgroups P, each with
    C_T(P) <= P.  E is strongly F-invariant, so it holds the F-orbit of
    each of its maps (``_f_conjugates``).  The candidates are therefore
    the F-orbits of the automorphisms in F of the P <= T with
    C_T(P) <= P, and E is generated by Inn(T) and the candidates it
    holds.  The seed closes the orbits that meet Inn(T) onto Inn(T), so
    it lies inside every normal E over T.  Each step closes one orbit
    onto a system already found, and every system inside E that is not
    E misses an orbit inside E; so the breadth-first growth reaches
    every E, and the normality test keeps them."""
    S, p, cap = F.index.S, F.p, F.morphism_cap
    out = []
    for t in (t for t in F.lattice if is_strongly_closed(F, t)):
        orbits: list[frozenset] = []
        placed: set[Morphism] = set()
        for q in F.lattice:
            if q & t == q and not _centralizer(F, q) & t & ~q:
                for m in sorted((q, img) for img in F.aut(q)):
                    if m not in placed:
                        orbits.append(frozenset([m, *_f_conjugates(F, [m])]))
                        placed |= orbits[-1]
        inner = inner_maps(S, t)
        seed = set().union(*(o for o in orbits if not o.isdisjoint(inner)))
        found = [close(S, p, seed, cap, t=t)]  # onto Inn(T)
        seen = {found[0].maps}
        for cur in found:  # found grows while it is read: breadth-first
            for orb in orbits:
                if orb <= cur.maps:
                    continue
                nxt = close(S, p, orb, cap, base=cur, t=t)
                if nxt.maps not in seen:
                    seen.add(nxt.maps)
                    found.append(nxt)
                    if len(found) > SUBSYSTEM_ENUM_CAP:
                        raise SizeCapExceeded(
                            "subsystem enumeration exceeded "
                            f"{SUBSYSTEM_ENUM_CAP} closed subsystems over "
                            "one subgroup of S")
        out += [E for E in found if is_normal_subsystem(F, E)]
    return out


@kept
def subnormal_subsystems(F: FusionSystem
                         ) -> dict[FusionSystem, tuple[FusionSystem, ...]]:
    """Each subnormal subsystem of F with a chain up to F, each link normal
    in the next: F, and those of each proper normal subsystem of F
    (Aschbacher–Kessar–Oliver, *Fusion Systems in Algebra and Topology*,
    §I.6)."""
    chains = {F: (F,)}
    for N in normal_subsystems(F):
        if N != F:
            for X, chain in subnormal_subsystems(N).items():
                chains.setdefault(X, chain + (F,))
    return chains


def is_subnormal_subsystem(F: FusionSystem, E: FusionSystem
                           ) -> tuple[bool, tuple[FusionSystem, ...]]:
    """(True, a chain from E up to F), or (False, ()): a lookup."""
    chain = subnormal_subsystems(F).get(E)
    return (True, chain) if chain else (False, ())
