"""Explicit saturated fusion systems over small p-groups.

A fusion system is stored as the set of *graphs* of its morphisms:
injective homomorphisms between subgroups of S given by their full
element maps.  A graph phi: P -> phi(P) stands for every morphism
P -> Q with phi(P) <= Q, so divisibility and corestriction are built
into the representation, and Hom(P, Q) is derived by filtering.

Morphism sets are closed under composition, restriction and inverses;
equality of fusion systems is literal equality of graph sets over the
same underlying p-group.  ``close`` computes that closure, and closes
onto an already closed system incrementally.

The subgroup predicates run on the positions of S, through the one
``SIndex`` of S that its parent group keeps (``FiniteGroup.sindex``),
with the lattice masks and joins memoized there: a system keeps its maps
as source masks with image positions and the images of each point, both
built on first use.  O_p is searched only above a subgroup it is known
to contain.

Aut_F(P) is an ordinary permutation group on the elements of P
(``aut_group``), so p-cores, element orders and generated subgroups of
automorphisms come from ``permgroup``.

Every closure runs under a morphism cap.  A system keeps the cap it was
built under, and closures inside it (normal closures, products,
subsystem enumeration) and its normalizer systems inherit that cap, so
a caller sets it once where it builds the ambient system.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .permgroup import (FiniteGroup, SIndex, Subgroup, all_subgroups,
                        bit_positions, compose, conjugate, image_mask,
                        inverse, p_core, _p_part)

DEFAULT_MORPHISM_CAP = 1_000_000


class FusionError(ValueError):
    """Invalid fusion-system construction or precondition."""


class MorphismCapExceeded(FusionError):
    pass


class FMap:
    """Graph of an injective homomorphism between subgroups of S."""

    __slots__ = ("pairs", "src", "img", "d")

    def __init__(self, pairs: Iterable[tuple]):
        self.pairs = tuple(sorted(pairs))
        self.d = dict(self.pairs)
        self.src = frozenset(self.d)
        self.img = frozenset(self.d.values())
        if len(self.img) != len(self.src):
            raise FusionError("map is not injective")

    def __call__(self, x):
        return self.d[x]

    def __eq__(self, other):
        return isinstance(other, FMap) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __lt__(self, other):
        return self.pairs < other.pairs

    def restrict(self, subset: frozenset) -> "FMap":
        return FMap((x, y) for x, y in self.pairs if x in subset)

    def then(self, other: "FMap") -> "FMap":
        """Apply self, then other; requires img(self) <= src(other)."""
        return FMap((x, other.d[y]) for x, y in self.pairs)

    def inv(self) -> "FMap":
        return FMap((y, x) for x, y in self.pairs)

    def is_identity(self) -> bool:
        return all(x == y for x, y in self.pairs)

    def image_of(self, xs: Iterable) -> frozenset:
        return frozenset(self.d[x] for x in xs)

    def __repr__(self):
        return f"FMap(|P|={len(self.src)})"


def conj_map(dom: Iterable, g) -> FMap:
    """Graph of x -> x^g on the given domain."""
    return FMap((x, conjugate(x, g)) for x in dom)


def _check_homomorphism(phi: FMap):
    for x in phi.src:
        for y in phi.src:
            z = compose(x, y)
            if z not in phi.src or phi.d[z] != compose(phi.d[x], phi.d[y]):
                raise FusionError("graph is not a homomorphism on a subgroup")


def subgroup_lattice(S: Subgroup) -> list[Subgroup]:
    """Every subgroup of S, canonically ordered; built once and kept on
    the index of S."""
    idx = S.parent.sindex(S)
    if idx.subgroups is None:
        idx.subgroups = all_subgroups(S.parent, within=S)
    return idx.subgroups


class FusionSystem:
    """Fusion system over the p-group S, given by its morphism graphs.

    ``morphism_cap`` bounds the closures computed inside this system; it
    takes no part in equality."""

    def __init__(self, S: Subgroup, p: int, maps: Iterable[FMap],
                 morphism_cap: int = DEFAULT_MORPHISM_CAP):
        self.S = S
        self.p = p
        self.maps = frozenset(maps)
        self.morphism_cap = morphism_cap
        self.subgroups = subgroup_lattice(S)
        self._sub_by_set = {P.eset: P for P in self.subgroups}
        self._by_mask: Optional[dict[int, list[tuple[int, ...]]]] = None
        self._reach: Optional[list[int]] = None
        self.by_src: dict[frozenset, tuple[FMap, ...]] = {}
        grouped: dict[frozenset, list[FMap]] = {}
        for m in self.maps:
            grouped.setdefault(m.src, []).append(m)
        for k, v in grouped.items():
            self.by_src[k] = tuple(sorted(v))

    def subgroup(self, eset: frozenset) -> Subgroup:
        try:
            return self._sub_by_set[frozenset(eset)]
        except KeyError:
            raise FusionError("not a subgroup of S") from None

    def aut(self, P: Subgroup) -> list[FMap]:
        return [m for m in self.by_src.get(P.eset, ())
                if m.img == P.eset]

    def isos_from(self, P: Subgroup) -> tuple[FMap, ...]:
        return self.by_src.get(P.eset, ())

    def conjugates(self, P: Subgroup) -> list[Subgroup]:
        seen = {m.img for m in self.isos_from(P)} | {P.eset}
        return sorted((self.subgroup(s) for s in seen),
                      key=lambda H: H.elements)

    @property
    def index(self) -> SIndex:
        """S indexed by positions: the index its parent group keeps."""
        return self.S.parent.sindex(self.S)

    def maps_by_mask(self) -> dict[int, list[tuple[int, ...]]]:
        """The maps grouped by the mask of their source, each given by the
        positions of its images over all of S (-1 outside the source);
        built on first use."""
        if self._by_mask is None:
            pos = self.index.pos
            out: dict[int, list[tuple[int, ...]]] = {}
            for m in self.maps:
                img = [-1] * len(pos)
                src = 0
                for x, y in m.pairs:
                    img[pos[x]] = pos[y]
                    src |= 1 << pos[x]
                out.setdefault(src, []).append(tuple(img))
            self._by_mask = out
        return self._by_mask

    def point_images(self) -> list[int]:
        """For each position of S, the mask of its images under the maps
        defined at it; built on first use."""
        if self._reach is None:
            reach = [0] * len(self.index.elements)
            for src, imgs in self.maps_by_mask().items():
                for i in bit_positions(src):
                    for img in imgs:
                        reach[i] |= 1 << img[i]
            self._reach = reach
        return self._reach

    def normalizer_in_s(self, P: Subgroup) -> frozenset:
        """N_S(P) as an element set."""
        idx = self.index
        return frozenset(idx.members(idx.normalizer(idx.mask(P.eset))))

    def _aut_s_images(self, P: Subgroup) -> set[tuple[int, ...]]:
        """Aut_S(P) as image tuples over the positions of P."""
        idx = self.index
        m = idx.mask(P.eset)
        ps = idx.positions(m)
        return {tuple([idx.inner(s)[i] for i in ps])
                for s in idx.positions(idx.normalizer(m))}

    def aut_s(self, P: Subgroup) -> set[FMap]:
        els = self.index.elements
        dom = sorted(P.eset)
        return {FMap(zip(dom, [els[j] for j in images]))
                for images in self._aut_s_images(P)}

    def __eq__(self, other):
        return (isinstance(other, FusionSystem) and self.p == other.p
                and self.S.eset == other.S.eset and self.maps == other.maps)

    def __hash__(self):
        return hash((self.p, self.S.eset, self.maps))

    def __contains__(self, m: FMap):
        return m in self.maps

    def __repr__(self):
        return f"FusionSystem(|S|={self.S.order}, maps={len(self.maps)})"

    def to_json(self) -> dict:
        subs = sorted({m.src for m in self.maps} | {P.eset for P in self.subgroups},
                      key=lambda s: (len(s), sorted(s)))
        sub_idx = {s: i for i, s in enumerate(subs)}
        return {
            "p": self.p,
            "subgroups": [sorted(map(list, s)) for s in subs],
            "morphisms": [
                {"src": sub_idx[m.src], "tgt": sub_idx[m.img],
                 "map": [[list(x), list(y)] for x, y in m.pairs]}
                for m in sorted(self.maps)
            ],
        }


# -- constructions -----------------------------------------------------------

def _conjugation_maps(S: Subgroup, acting: Sequence) -> set[FMap]:
    """Graphs of the maps P -> P^g for P in the S-lattice and g in
    ``acting`` with P^g <= S.

    The actions come from ``SIndex.actions``, one coset of S at a time.
    The subgroups inside dom(g) are listed once per distinct dom, the
    images of each are read by one getter, and each distinct
    (P, images) map is built once.
    """
    idx = S.parent.sindex(S)
    # a getter of one index gives a scalar: only the trivial subgroup
    # has one, and it always maps onto itself
    subs = [(m, itemgetter(*idx.positions(m)) if m != 1
             else lambda images: (0,)) for m in idx.lattice()]
    inside: dict[int, list] = {}
    graphs = set()
    for _, images, dom in idx.actions(acting):
        subs_in = inside.get(dom)
        if subs_in is None:
            subs_in = inside[dom] = [(m, get) for m, get in subs
                                     if m & dom == m]
        for m, get in subs_in:
            graphs.add((m, get(images)))
    els = idx.elements
    return {FMap(zip(idx.members(m), [els[j] for j in images]))
            for m, images in graphs}


def inner_maps(S: Subgroup) -> set[FMap]:
    return _conjugation_maps(S, S.elements)


def inner_fusion(S: Subgroup, p: int) -> FusionSystem:
    """F_S(S): conjugation maps by elements of S only."""
    return FusionSystem(S, p, inner_maps(S))


def close(S: Subgroup, p: int, generators: Iterable[FMap],
          cap: int = DEFAULT_MORPHISM_CAP,
          base: Optional[FusionSystem] = None) -> FusionSystem:
    """Least fusion system over S containing ``base`` (the inner maps of
    S by default) and the generators.

    ``base`` must be closed under composition, restriction and inversion,
    as every ``FusionSystem`` built here is, and the inner maps are.  A
    map composed, restricted or inverted from closed maps alone is
    already present, so only the generators and the maps they give rise
    to are queued, and each queued map is composed with every map found
    so far; the fixed point is the closure of the base and the generators
    whatever the base is.  Raises MorphismCapExceeded once it holds more
    than ``cap`` maps.  The result keeps ``cap``.
    """
    if base is not None and base.S.eset != S.eset:
        raise FusionError("base system lives over another subgroup")
    lattice = subgroup_lattice(S)
    subs_inside = {P.eset: [Q.eset for Q in lattice if Q.eset < P.eset]
                   for P in lattice}
    maps = set(inner_maps(S) if base is None else base.maps)
    queue: list[FMap] = []

    def push(m: FMap):
        if m not in maps:
            maps.add(m)
            if len(maps) > cap:
                raise MorphismCapExceeded(
                    f"fusion closure exceeded {cap} morphisms")
            queue.append(m)

    for g in generators:
        if not (g.src <= S.eset and g.img <= S.eset):
            raise FusionError("generator does not live inside S")
        _check_homomorphism(g)
        push(g)
    while queue:
        m = queue.pop()
        push(m.inv())
        for sub in subs_inside[m.src]:
            push(m.restrict(sub))
        for other in list(maps):
            if m.img <= other.src:
                push(m.then(other))
            if other.img <= m.src:
                push(other.then(m))
    return FusionSystem(S, p, maps, cap)


def fusion_of_group(G: FiniteGroup, S: Subgroup,
                    acting: Optional[Sequence] = None, p: int = 0,
                    cap: int = DEFAULT_MORPHISM_CAP) -> FusionSystem:
    """F_S(G): Hom(P, Q) = conjugation maps by elements of G.

    ``acting`` narrows the conjugating elements to a subgroup M of G,
    yielding F_{S}(M)-style systems (S must then be a subset of M closed
    appropriately; the caller is responsible for S <= M).  ``cap`` is
    the morphism cap of closures inside the result.
    """
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


def fusion_of_partial_subgroup(L, H: Iterable[int],
                               cap: int = DEFAULT_MORPHISM_CAP) -> FusionSystem:
    """F_{S∩H}(H): generated by the conjugation maps between subgroups
    of S∩H induced by elements of H."""
    from .locality import Locality
    assert isinstance(L, Locality)
    Hset = frozenset(H)
    sh_ids = sorted(set(L.s_ids) & Hset)
    Ssub, to_perm = _s_cap_h_subgroup(L, sh_ids)
    sh_label = {i: to_perm[i] for i in sh_ids}
    gens = []
    for h in sorted(Hset):
        ph = L._pm[h]
        dom = []
        for i in sh_ids:
            v = ph[L._s_pos[i]]
            if v >= 0 and L.s_ids[v] in sh_ids:
                dom.append(i)
        # dom is a subgroup of S∩H: conjugation is multiplicative on S_h
        gens.append(FMap((sh_label[i], sh_label[L.s_ids[ph[L._s_pos[i]]]])
                         for i in dom))
    return close(Ssub, L.p, gens, cap)


def _s_cap_h_subgroup(L, sh_ids: list[int]) -> tuple[Subgroup, dict]:
    """S∩H as a Subgroup, with the id -> element-label map."""
    if L.realization is not None:
        G = L.realization
        to_perm = {i: L.labels[i] for i in sh_ids}
    else:
        G, to_perm = L.group_on(L.s_ids)
        to_perm = {i: to_perm[i] for i in sh_ids}
    elems = frozenset(to_perm.values())
    for a in elems:
        for b in elems:
            if compose(a, b) not in elems:
                raise FusionError("S∩H is not a subgroup")
    return G.subgroup(elems), to_perm


def fusion_of_locality(L, cap: int = DEFAULT_MORPHISM_CAP) -> FusionSystem:
    """F_S(L), cached on the locality (``cap`` bounds the first call's
    closure)."""
    if L._fusion is None:
        L._fusion = fusion_of_partial_subgroup(L, range(L.n), cap)
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
    of its points (``point_images``) and take the subgroup they generate,
    until neither adds anything."""
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


def centralizer_in(sub: Iterable, of: Iterable) -> frozenset:
    of = list(of)
    return frozenset(s for s in sub
                     if all(compose(s, x) == compose(x, s) for x in of))


def product_subgroup(F: FusionSystem, A: frozenset, B: frozenset) -> Subgroup:
    prod = frozenset(compose(a, b) for a in A for b in B)
    return F.subgroup(prod)


def is_centric(F: FusionSystem, P: Subgroup) -> bool:
    for Q in F.conjugates(P):
        if not centralizer_in(F.S, Q.eset) <= Q.eset:
            return False
    return True


def aut_group(F: FusionSystem, P: Subgroup) -> tuple[FiniteGroup, dict]:
    """Aut_F(P) as a permutation group of degree |P|, with the map from
    each automorphism to its permutation: phi moves the element at
    position i of P (in canonical order) to the position of its image.
    Composition matches: ``phi.then(psi)`` goes to the product of the
    two permutations."""
    pos = {x: i for i, x in enumerate(P.elements)}
    to_perm = {phi: tuple([pos[phi.d[x]] for x in P.elements])
               for phi in F.aut(P)}
    return FiniteGroup(P.order, to_perm.values(),
                       max_size=max(len(to_perm), 1)), to_perm


def is_centric_radical(F: FusionSystem, P: Subgroup) -> bool:
    """Centric with O_p(Out_F(P)) trivial.

    Inn(P) is a normal p-subgroup of Aut_F(P), so O_p(Out_F(P)) is
    O_p(Aut_F(P))/Inn(P), and it is trivial exactly when
    |O_p(Aut_F(P))| = |Inn(P)| = |P : Z(P)|."""
    if not is_centric(F, P):
        return False
    A, _ = aut_group(F, P)
    return p_core(A, F.p).order * len(centralizer_in(P.eset, P.eset)) \
        == P.order


def fully_normalized_conjugate(F: FusionSystem, P: Subgroup) -> Subgroup:
    def nsize(Q):
        return len(F.normalizer_in_s(Q))
    conj = F.conjugates(P)
    best = max(nsize(Q) for Q in conj)
    return next(Q for Q in conj if nsize(Q) == best)


def _picker(mask: int):
    """The function taking a tuple over the positions of S to the tuple
    of its entries at the positions of ``mask``."""
    ps = bit_positions(mask)
    if len(ps) == 1:
        return lambda t, i=ps[0]: (t[i],)
    return itemgetter(*ps)


def normalizer_system(F: FusionSystem, Q: Subgroup) -> FusionSystem:
    """N_F(Q) over N_S(Q): restrictions of Q-preserving morphisms.

    On the positions of S: each map psi of F with Q <= src(psi) and
    psi(Q) = Q is restricted to every subgroup of N_S(Q) inside its
    source, and each distinct (source, images) pair becomes one map.
    Such a psi sends src(psi) ∩ N_S(Q) into N_S(psi(Q)) = N_S(Q), so
    every restriction lands in N_S(Q)."""
    idx = F.index
    q = idx.mask(Q.eset)
    qs = bit_positions(q)
    ns = idx.normalizer(q)
    subs = [(m, _picker(m)) for m in idx.lattice() if m & ns == m]
    graphs = set()
    for src, imgs in F.maps_by_mask().items():
        if src & q != q:
            continue
        inside = [(m, on_m) for m, on_m in subs if m & src == m]
        for img in imgs:
            if image_mask(img, qs) == q:
                graphs.update((m, on_m(img)) for m, on_m in inside)
    els = idx.elements
    out = {FMap(zip(idx.members(m), [els[j] for j in images]))
           for m, images in graphs}
    sub = F.subgroup(idx.members(ns))
    return FusionSystem(sub, F.p, out, F.morphism_cap)


def _normality_fault(F: FusionSystem, Q: Subgroup) -> Optional[str]:
    """The first clause of normality in F that Q fails, or None.

    "strong_closure": some map sends a point of Q outside Q.
    "extension": some map phi is not the restriction of a map of F on
    <src(phi), Q>.  Once Q is strongly closed, every map defined on Q
    maps Q into Q, and so onto Q, being injective: the extension then
    preserves Q with no further test.  On the positions of S: each map
    is its source mask and image positions (``maps_by_mask``), <src, Q>
    is the memoized ``SIndex.join``, and the maps over one source are checked
    together against the restrictions of the maps over <src, Q>.
    """
    if not is_strongly_closed(F, Q):
        return "strong_closure"
    q = F.index.mask(Q.eset)
    groups = F.maps_by_mask()
    for src, imgs in groups.items():
        on_src = _picker(src)
        keep = set(map(on_src, groups.get(F.index.join(src, q), ())))
        if not keep.issuperset(map(on_src, imgs)):
            return "extension"
    return None


def is_normal_subgroup_in(F: FusionSystem, Q: Subgroup) -> bool:
    """Q normal in F: Q is strongly closed, and every morphism extends to
    one on <src, Q> that maps Q onto Q."""
    return _normality_fault(F, Q) is None


def _op_core_over(F: FusionSystem, floor: Subgroup) -> Subgroup:
    """The largest subgroup normal in F, searched only among the
    subgroups that contain ``floor``, which must lie in O_p(F).

    Exact for any system closed under restriction: the product of two
    normal subgroups is normal, so O_p(F) is the product of all of them
    and contains every one, ``floor`` included.  The uniqueness check
    refuses a set of maps that is not such a system.
    """
    normals = [Q for Q in F.subgroups
               if floor.eset <= Q.eset and is_normal_subgroup_in(F, Q)]
    best = max(normals, key=lambda Q: Q.order)  # the first of largest order
    if any(not Q.eset <= best.eset for Q in normals):
        raise FusionError("normal subgroups do not have a unique maximum")
    return best


def op_core(F: FusionSystem) -> Subgroup:
    """O_p(F): the largest subgroup normal in F.

    The product of two normal subgroups is normal, so this is the one
    normal subgroup containing all others; the search starts from the
    trivial subgroup."""
    return _op_core_over(F, F.subgroups[0])


def is_subcentric(F: FusionSystem, P: Subgroup) -> bool:
    """O_p(N_F(Q)) is F-centric, for a fully normalized conjugate Q of P.

    Two lemmas, exact for any system closed under restriction, bound the
    work:
    - Q is normal in N_F(Q), and the product of two normal subgroups is
      normal, so Q <= O_p(N_F(Q)): O_p is searched only among the
      subgroups of N_S(Q) that contain Q.
    - Overgroups of F-centric subgroups are F-centric, so with Q <=
      O_p(N_F(Q)) an F-centric P is subcentric, and no normalizer system
      is built for it.
    """
    if is_centric(F, P):
        return True
    Q = fully_normalized_conjugate(F, P)
    NQ = normalizer_system(F, Q)
    R = _op_core_over(NQ, NQ.subgroup(Q.eset))
    return is_centric(F, F.subgroup(R.eset))


def subcentric_subgroups(F: FusionSystem) -> list[Subgroup]:
    verdicts: dict[frozenset, bool] = {}
    for P in F.subgroups:
        if P.eset in verdicts:
            continue
        v = is_subcentric(F, P)
        for Q in F.conjugates(P):  # class-invariant property
            verdicts[Q.eset] = v
    return [P for P in F.subgroups if verdicts[P.eset]]


def centric_radicals(F: FusionSystem) -> list[Subgroup]:
    return [P for P in F.subgroups if is_centric_radical(F, P)]


# -- saturation --------------------------------------------------------------

def is_fully_automized(F: FusionSystem, P: Subgroup) -> bool:
    return len(F._aut_s_images(P)) == _p_part(len(F.aut(P)), F.p)


def is_receptive(F: FusionSystem, P: Subgroup) -> bool:
    """Every iso phi: Q -> P in F extends to N_phi, the g in N_S(Q) whose
    conjugation phi^-1 c_g phi lies in Aut_S(P)."""
    idx = F.index
    pos = idx.pos
    aut_s_p = F._aut_s_images(P)
    ps = [pos[x] for x in sorted(P.eset)]
    for Q in F.conjugates(P):
        nsq = idx.positions(idx.normalizer(idx.mask(Q.eset)))
        for phi in F.isos_from(Q):
            if phi.img != P.eset:
                continue
            fwd = {pos[x]: pos[y] for x, y in phi.pairs}
            preimage = {v: k for k, v in fwd.items()}
            back = [preimage[i] for i in ps]
            nphi = 0
            for g in nsq:
                cg = idx.inner(g)
                if tuple([fwd[cg[j]] for j in back]) in aut_s_p:
                    nphi |= 1 << g
            nset = frozenset(idx.members(nphi))
            ok = any(psi.image_of(Q.eset) == P.eset
                     and all(psi.d[x] == phi.d[x] for x in Q.eset)
                     for psi in F.by_src.get(nset, ()))
            if not ok:
                return False
    return True


def is_saturated(F: FusionSystem) -> bool:
    """Every conjugacy class contains a fully automized receptive member."""
    seen: set[frozenset] = set()
    for P in F.subgroups:
        if P.eset in seen:
            continue
        cls = F.conjugates(P)
        seen |= {Q.eset for Q in cls}
        if not any(is_fully_automized(F, Q) and is_receptive(F, Q)
                   for Q in cls):
            return False
    return True


# -- subsystems --------------------------------------------------------------

def is_subsystem(F: FusionSystem, E: FusionSystem) -> bool:
    return (E.p == F.p and E.S.eset <= F.S.eset and E.maps <= F.maps)


def _conjugate_map(psi: FMap, phi: FMap) -> FMap:
    """psi-conjugate of phi: x -> psi(phi(psi^-1(x))) on psi(src(phi))."""
    return FMap((psi.d[x], psi.d[phi.d[x]]) for x in phi.src)


def is_normal_subsystem(F: FusionSystem, E: FusionSystem) -> bool:
    """T strongly closed, E saturated, strongly F-invariant, and the
    automorphism extension condition on T C_S(T)."""
    if not is_subsystem(F, E):
        return False
    T = F.subgroup(E.S.eset)
    if not is_strongly_closed(F, T):
        return False
    if not is_saturated(E):
        return False
    # strong invariance
    for psi in F.maps:
        if not psi.src <= T.eset:
            continue
        for phi in E.maps:
            if phi.src | phi.img <= psi.src:
                if _conjugate_map(psi, phi) not in E.maps:
                    return False
    # extension condition on T C_S(T)
    C = centralizer_in(F.S, T.eset)
    TC = product_subgroup(F, T.eset, C)
    ZT = centralizer_in(T.eset, T.eset)
    for alpha in E.aut(T):
        ok = False
        for psi in F.by_src.get(TC.eset, ()):
            if psi.img != TC.eset:
                continue
            if not all(psi.d[x] == alpha.d[x] for x in T.eset):
                continue
            if all(compose(inverse(x), psi.d[x]) in ZT for x in C):
                ok = True
                break
        if not ok:
            return False
    return True


def normal_closure(F: FusionSystem, E: FusionSystem) -> FusionSystem:
    """Subsystem of F generated by all F-conjugates of E's morphisms,
    over the strong closure of E's Sylow."""
    That = strong_closure(F, F.subgroup(E.S.eset))
    gens = set()
    for phi in E.maps:
        gens.add(phi)
        for psi in F.maps:
            if phi.src | phi.img <= psi.src:
                gens.add(_conjugate_map(psi, phi))
    return close(That, F.p, gens, F.morphism_cap)


def is_subnormal_subsystem(F: FusionSystem, E: FusionSystem
                           ) -> tuple[bool | str, list[FusionSystem]]:
    """Chain search by descending normal closures.

    Returns (verdict, chain from E up to F); verdict is True, False, or
    "unknown" when a descending link fails the normality audit (the
    weak closure need not be saturated in general).
    """
    if not is_subsystem(F, E):
        return False, []
    if E == F:
        return True, [F]
    chain = [F]
    cur = F
    # each normal closure is a subsystem of the last, so the chain
    # descends until it stops, and the loop ends on its own
    while True:
        nxt = normal_closure(cur, E)
        if nxt == cur:
            break
        chain.append(nxt)
        cur = nxt
    if cur != E:
        return False, list(reversed(chain))
    for below, above in zip(chain[1:], chain):
        if not is_normal_subsystem(above, below):
            return "unknown", list(reversed(chain))
    return True, list(reversed(chain))
