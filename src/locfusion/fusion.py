"""Explicit saturated fusion systems over small p-groups.

A fusion system is stored as the set of *graphs* of its morphisms:
injective homomorphisms between subgroups of S given by their full
element maps.  A graph phi: P -> phi(P) stands for every morphism
P -> Q with phi(P) <= Q, so divisibility and corestriction are built
into the representation, and Hom(P, Q) is derived by filtering.

Morphism sets are closed under composition, restriction and inverses;
equality of fusion systems is literal equality of graph sets over the
same underlying p-group.

Every closure runs under a morphism cap.  A system keeps the cap it was
built under, and closures inside it (normal closures, products,
subsystem enumeration) and its normalizer systems inherit that cap, so
a caller sets it once where it builds the ambient system.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .permgroup import (FiniteGroup, SIndex, Subgroup, all_subgroups,
                        cayley_group, compose, conjugate, inverse, _p_part)

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


_lattice_cache: dict = {}


def subgroup_lattice(S: Subgroup) -> list[Subgroup]:
    key = (S.parent.degree, S.eset)
    if key not in _lattice_cache:
        _lattice_cache[key] = all_subgroups(S.parent, within=S)
    return _lattice_cache[key]


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
        self._index: Optional[SIndex] = None
        self._gen_cache: dict[frozenset, frozenset] = {}
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

    def generated(self, xs: frozenset) -> frozenset:
        """Subgroup of S generated by xs: smallest lattice member over it."""
        xs = frozenset(xs)
        if xs not in self._gen_cache:
            best = min((P for P in self.subgroups if xs <= P.eset),
                       key=lambda P: P.order)
            self._gen_cache[xs] = best.eset
        return self._gen_cache[xs]

    def hom(self, P: Subgroup, Q: Subgroup) -> list[FMap]:
        return [m for m in self.by_src.get(P.eset, ())
                if m.img <= Q.eset]

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
        """S indexed by positions, built on first use."""
        if self._index is None:
            self._index = SIndex(self.S)
        return self._index

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

def _conjugation_maps(S: Subgroup, acting: Iterable) -> set[FMap]:
    """Graphs of the maps P -> P^g for P in the S-lattice and g in
    ``acting`` with P^g <= S.

    The action of each g on S is computed once and dropped; the test
    P <= dom(g) is one mask comparison, and each distinct
    (P, images) map is built once.
    """
    idx = SIndex(S)
    subs = [(m, idx.positions(m))
            for m in (idx.mask(P.elements) for P in subgroup_lattice(S))]
    graphs = set()
    for g in acting:
        images, dom = idx.action(g)
        for m, ps in subs:
            if m & dom == m:
                graphs.add((m, tuple([images[i] for i in ps])))
    els = idx.elements
    return {FMap(zip(idx.members(m), [els[j] for j in images]))
            for m, images in graphs}


def inner_maps(S: Subgroup) -> set[FMap]:
    return _conjugation_maps(S, S.elements)


def inner_fusion(S: Subgroup, p: int) -> FusionSystem:
    """F_S(S): conjugation maps by elements of S only."""
    return FusionSystem(S, p, inner_maps(S))


def close(S: Subgroup, p: int, generators: Iterable[FMap],
          cap: int = DEFAULT_MORPHISM_CAP) -> FusionSystem:
    """Least fusion system over S containing the generators.

    Saturates composition, restriction and inversion over the inner maps
    and the generators until a fixed point; raises MorphismCapExceeded
    once it holds more than ``cap`` maps.  The result keeps ``cap``.
    """
    lattice = subgroup_lattice(S)
    subs_inside = {P.eset: [Q.eset for Q in lattice if Q.eset <= P.eset]
                   for P in lattice}
    maps = set(inner_maps(S))
    queue = list(maps)
    for g in generators:
        if not (g.src <= S.eset and g.img <= S.eset):
            raise FusionError("generator does not live inside S")
        _check_homomorphism(g)
        if g not in maps:
            maps.add(g)
            queue.append(g)

    by_src: dict[frozenset, list[FMap]] = {}
    for m in maps:
        by_src.setdefault(m.src, []).append(m)

    def push(m: FMap):
        if m not in maps:
            maps.add(m)
            if len(maps) > cap:
                raise MorphismCapExceeded(
                    f"fusion closure exceeded {cap} morphisms")
            by_src.setdefault(m.src, []).append(m)
            queue.append(m)

    while queue:
        m = queue.pop()
        push(m.inv())
        for sub in subs_inside[m.src]:
            if sub != m.src:
                push(m.restrict(sub))
        for other in list(maps):
            if m.img <= other.src:
                push(m.then(other))
            if other.img <= m.src:
                push(other.then(m))
    return FusionSystem(S, p, maps, cap)


def fusion_of_group(G: FiniteGroup, S: Subgroup,
                    acting: Optional[Iterable] = None, p: int = 0,
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
    for m in F.maps:
        for x in T.eset & m.src:
            if m.d[x] not in T.eset:
                return False
    return True


def strong_closure(F: FusionSystem, T: Subgroup) -> Subgroup:
    """Smallest strongly F-closed subgroup containing T."""
    X = set(T.eset)
    changed = True
    while changed:
        changed = False
        for m in F.maps:
            for x in list(X & m.src):
                if m.d[x] not in X:
                    X.add(m.d[x])
                    changed = True
        gen = set(F.generated(frozenset(X)))
        if gen != X:
            X = gen
            changed = True
    return F.subgroup(frozenset(X))


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


def _aut_perm_group(auts: Sequence[FMap]) -> tuple[FiniteGroup, dict]:
    return cayley_group(sorted(auts), lambda a, b: a.then(b))


def is_centric_radical(F: FusionSystem, P: Subgroup) -> bool:
    """Centric with O_p(Out_F(P)) trivial."""
    if not is_centric(F, P):
        return False
    auts = sorted(F.aut(P))
    GA, to_perm = _aut_perm_group(auts)
    inn = {conj_map(P.eset, x) for x in P.eset}
    inn_perms = GA.subgroup([to_perm[a] for a in inn], check=False)
    quotient, _ = _quotient_group(GA, inn_perms)
    from .permgroup import p_core
    return p_core(quotient, F.p).order == 1


def _quotient_group(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, dict]:
    cosets = {}
    for g in G.elements:
        cs = frozenset(compose(n, g) for n in N.eset)
        cosets.setdefault(cs, min(cs))
    keys = sorted(cosets)
    rep = {k: cosets[k] for k in keys}
    coset_of = {}
    for k in keys:
        for g in k:
            coset_of[g] = k

    def mul(a, b):
        return coset_of[compose(rep[a], rep[b])]
    Q, to_perm = cayley_group(keys, mul)
    return Q, to_perm


def fully_normalized_conjugate(F: FusionSystem, P: Subgroup) -> Subgroup:
    def nsize(Q):
        return len(F.normalizer_in_s(Q))
    conj = F.conjugates(P)
    best = max(nsize(Q) for Q in conj)
    return next(Q for Q in conj if nsize(Q) == best)


def normalizer_system(F: FusionSystem, Q: Subgroup) -> FusionSystem:
    """N_F(Q) over N_S(Q): restrictions of Q-preserving morphisms."""
    NS = F.normalizer_in_s(Q)
    NSsub = F.subgroup(NS)
    lattice = [P for P in subgroup_lattice(F.S) if P.eset <= NS]
    out = set()
    for psi in F.maps:
        if not (Q.eset <= psi.src and psi.image_of(Q.eset) == Q.eset):
            continue
        M = frozenset(x for x in psi.src & NS if psi.d[x] in NS)
        for P in lattice:
            if P.eset <= M:
                out.add(psi.restrict(P.eset))
    sub = Subgroup(F.S.parent, NS, check=False)
    return FusionSystem(sub, F.p, out, F.morphism_cap)


def is_normal_subgroup_in(F: FusionSystem, Q: Subgroup) -> bool:
    """Q normal in F: every morphism extends to one preserving Q."""
    if not is_strongly_closed(F, Q):
        return False
    for phi in F.maps:
        pq = F.generated(phi.src | Q.eset)
        found = False
        for psi in F.by_src.get(pq, ()):
            if psi.image_of(Q.eset) == Q.eset \
                    and all(psi.d[x] == phi.d[x] for x in phi.src):
                found = True
                break
        if not found:
            return False
    return True


def op_core(F: FusionSystem) -> Subgroup:
    """O_p(F): the largest subgroup normal in F."""
    normals = [Q for Q in F.subgroups if is_normal_subgroup_in(F, Q)]
    best = max(normals, key=lambda Q: Q.order)  # the first of largest order
    if any(not Q.eset <= best.eset for Q in normals):
        raise FusionError("normal subgroups do not have a unique maximum")
    return best


def is_subcentric(F: FusionSystem, P: Subgroup) -> bool:
    """O_p(N_F(Q)) is centric, for a fully normalized conjugate Q of P."""
    Q = fully_normalized_conjugate(F, P)
    NQ = normalizer_system(F, Q)
    R = op_core(NQ)
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


def is_subnormal_subsystem(F: FusionSystem, E: FusionSystem,
                           max_steps: int = 32
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
    for _ in range(max_steps):
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
