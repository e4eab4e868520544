"""Exact finite permutation groups, and an integer kernel indexed by S.

Permutations are tuples of images of ``0..degree-1`` (one-line notation,
0-indexed; the JSON interchange format is 1-indexed).  Composition is
left-to-right: ``(a*b)(x) = b(a(x))``, so ``x^g = g^-1 * x * g``.

Groups are stored by full element enumeration.  Everything here is
capped and exhaustive by design: groups are small enough that every
predicate can be decided by complete enumeration, and all outputs are
canonically ordered (lexicographic on one-line images) so results are
byte-deterministic.

Work inside a subgroup S goes through :class:`SIndex`: S is indexed once
as positions ``0..|S|-1`` in canonical order, subsets of S are ``int``
bitmasks over those positions, and products in S are lookups in a
lazily filled Cayley table.  ``SIndex.action(g)`` conjugates all of S by
one element g of the ambient group in a single pass, giving the position
of each ``s^g`` (or -1 when it leaves S) and the domain mask
``S ∩ S^(g^-1)``.  Conjugation is a homomorphism, so whole-group passes
go through ``SIndex.cosets``: it conjugates directly only the first
element r met of each right coset rS, and ``member_images`` reads the
action of r·t off that of r through the inner action of t, for the
cosets a caller keeps.  The same
fact keeps ``sylow_subgroup`` from building normalizers: an element
normalizes P exactly when it conjugates the generators adjoined so far
into P, so each step is one scan of G, and the search stops once |P| is
the p-part of |G|.  S must be
a p-group for its lattice: every subgroup J > 1 of a p-group extends a
normal subgroup of index p by one element of its normalizer, so the
S-lattice is built one order at a time, each J as a union of right
cosets (Aschbacher, Kessar and Oliver, *Fusion Systems in Algebra and
Topology*, 2011, §I.2).  N_S(P) is a union of right cosets of P, so it
is found by testing one element per coset, and Aut_S(P) is kept with
the elements of N_S(P) that induce each map.  A group keeps one index
per subgroup element set (``FiniteGroup.sindex``), and the index keeps
its lattice and its joins, so a run indexes each subgroup once.
"""

from __future__ import annotations

import math
from operator import itemgetter
from types import MappingProxyType
from typing import (Callable, Iterable, Iterator, Mapping, Optional,
                    Sequence)

Perm = tuple[int, ...]

DEFAULT_GROUP_CAP = 10_000
SUBGROUP_ENUM_CAP = 10_000  # the largest group whose subgroups are listed


class GroupError(ValueError):
    """Invalid group-theoretic input."""


class SizeCapExceeded(GroupError):
    """A closure grew past the configured size cap."""


# -- permutation primitives -------------------------------------------------

def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def getter(ps: Sequence[int]) -> Callable[[Sequence], tuple]:
    """t -> the tuple of the entries of t at ``ps``, one getter in C; for
    one index or none too, where ``itemgetter`` gives a scalar or fails."""
    if len(ps) == 1:
        i = ps[0]
        return lambda t: (t[i],)
    return itemgetter(*ps) if ps else lambda t: ()


def compose(a: Perm, b: Perm) -> Perm:
    """Apply a, then b: ``getter(a)`` applied to b."""
    return getter(a)(b)


def domain_mask(images: Iterable[int]) -> int:
    """Mask of the positions i where ``images[i]`` is a position, not -1."""
    m = 0
    for i, j in enumerate(images):
        if j >= 0:
            m |= 1 << i
    return m


def inverse(a: Perm) -> Perm:
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x] = i
    return tuple(inv)


def conjugate(x: Perm, g: Perm) -> Perm:
    """x^g = g^-1 x g, in one pass: x^g maps g(i) to g(x(i))."""
    c = [0] * len(g)
    for i, y in enumerate(g):
        c[y] = g[x[i]]
    return tuple(c)


def is_bijection(a: Iterable[int], degree: int) -> bool:
    a = tuple(a)
    return len(a) == degree and sorted(a) == list(range(degree))


def perm_order(a: Perm) -> int:
    """The lcm of the cycle lengths of a."""
    order, seen = 1, [False] * len(a)
    for i in range(len(a)):
        length, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = a[j]
            length += 1
        if length:
            order = math.lcm(order, length)
    return order


def _closure(gens: Iterable[Perm], degree: int, cap: int) -> set[Perm]:
    """The group ``gens`` generate, breadth-first from the identity: each
    element found is multiplied on the left by each generator through one
    ``getter(g)`` per generator (``getter(g)(x)`` is g·x).  Only the
    order of discovery depends on the side, and both callers sort.
    SizeCapExceeded once more than ``cap`` elements are found, so exactly
    when the group has more."""
    e = identity_perm(degree)
    seen = {e}
    frontier = [e]
    on_left = [getter(g) for g in gens]
    while frontier:
        new = []
        for x in frontier:
            for g_then in on_left:
                y = g_then(x)
                if y not in seen:
                    seen.add(y)
                    if len(seen) > cap:
                        raise SizeCapExceeded(
                            f"closure exceeds cap of {cap} elements")
                    new.append(y)
        frontier = new
    return seen


# -- groups and subgroups ---------------------------------------------------

class FiniteGroup:
    """A finite permutation group with its full element set."""

    __slots__ = ("degree", "generators", "elements", "eset", "identity",
                 "_sindexes")

    def __init__(self, degree: int, generators: Iterable[Perm],
                 max_size: int = DEFAULT_GROUP_CAP):
        if degree < 1:
            raise GroupError("degree must be positive")
        gens = []
        for g in generators:
            g = tuple(g)
            if not is_bijection(g, degree):
                raise GroupError(f"{g!r} is not a permutation of 0..{degree - 1}")
            gens.append(g)
        self.degree = degree
        self.generators = tuple(sorted(set(gens)))
        self.elements: tuple[Perm, ...] = tuple(
            sorted(_closure(gens, degree, max_size)))
        self.eset = frozenset(self.elements)
        self.identity = identity_perm(degree)
        self._sindexes: dict[frozenset, SIndex] = {}

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x) -> bool:
        return x in self.eset

    def sindex(self, H: "Subgroup") -> "SIndex":
        """The :class:`SIndex` of the subgroup H, built once per element
        set and kept."""
        idx = self._sindexes.get(H.eset)
        if idx is None:
            idx = self._sindexes[H.eset] = SIndex(H)
        return idx

    def subgroup(self, elems: Iterable[Perm], check: bool = True) -> "Subgroup":
        return Subgroup(self, elems, check=check)

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, self.elements, check=False)

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (self.identity,), check=False)

    # JSON interchange: {"degree": n, "generators": [[1-indexed images], ...]}
    @classmethod
    def from_descriptor(cls, d: dict, max_size: int = DEFAULT_GROUP_CAP) -> "FiniteGroup":
        degree = d["degree"]
        gens = [tuple(i - 1 for i in row) for row in d.get("generators", [])]
        return cls(degree, gens, max_size=max_size)

    def __repr__(self):
        return f"FiniteGroup(degree={self.degree}, order={self.order})"


class Subgroup:
    """A subgroup of a :class:`FiniteGroup`, stored as an explicit subset."""

    __slots__ = ("parent", "elements", "eset")

    def __init__(self, parent: FiniteGroup, elems: Iterable[Perm],
                 check: bool = True):
        elements = tuple(sorted(set(tuple(x) for x in elems)))
        if check:
            for x in elements:
                if x not in parent.eset:
                    raise GroupError(f"{x!r} is not an element of the parent group")
            if parent.identity not in elements:
                raise GroupError("subgroup must contain the identity")
            es = frozenset(elements)
            for a in elements:
                if inverse(a) not in es:
                    raise GroupError(f"subgroup not closed under inversion at {a!r}")
                for b in elements:
                    if compose(a, b) not in es:
                        raise GroupError(
                            f"subgroup not closed under product at {a!r}*{b!r}")
        self.parent = parent
        self.elements = elements
        self.eset = frozenset(elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x) -> bool:
        return x in self.eset

    def __le__(self, other: "Subgroup") -> bool:
        return self.eset <= other.eset

    def __eq__(self, other) -> bool:
        return isinstance(other, Subgroup) and self.eset == other.eset \
            and self.parent.degree == other.parent.degree

    def __hash__(self):
        return hash((self.parent.degree, self.eset))

    def __repr__(self):
        return f"Subgroup(order={self.order})"


def generated_subgroup(G: FiniteGroup, gens: Iterable[Perm]) -> Subgroup:
    """Closure of ``gens`` inside G (gens must lie in G)."""
    gens = [tuple(g) for g in gens]
    for g in gens:
        if g not in G.eset:
            raise GroupError(f"{g!r} is not an element of the group")
    return Subgroup(G, _closure(gens, G.degree, len(G)), check=False)


# -- the S-indexed kernel ---------------------------------------------------

def bit_positions(mask: int) -> list[int]:
    """The positions of the set bits of a mask, in increasing order."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


class SIndex:
    """A subgroup S indexed as positions ``0..|S|-1`` in canonical order.

    Subsets of S are ``int`` bitmasks over positions.  Positions follow
    the canonical order, so the members of a mask come out sorted, and
    position 0 is the identity (the least permutation).  Columns of the
    Cayley table, the conjugation action of S on itself, the lattice
    masks, the joins, N_S(P) and Aut_S(P) by classes of inducing
    elements are filled on first use, as are the ``subgroups`` of S with
    their ``masks`` and the subgroup ``by_mask`` of each
    (``fusion.subgroup_lattice``), and the ``inner_maps`` of each
    subgroup (``fusion.inner_maps``).  ``answers`` holds the answers
    asked of the fusion systems on S: one dict per distinct system and
    morphism cap, which every equal system built under that cap shares
    (``FusionSystem._verdicts``).  The lattice, and so the joins, exist
    only when S is a p-group; the rest holds for any S.  Obtain the index
    of a subgroup through ``FiniteGroup.sindex``, which keeps it on the
    group.
    """

    __slots__ = ("S", "elements", "pos", "subgroups", "masks", "by_mask",
                 "inner_maps", "answers", "_cols", "_inner", "_lattice",
                 "_joins", "_ups", "_normalizers", "_aut_s")

    def __init__(self, S: Subgroup):
        self.S = S
        self.elements = S.elements
        self.pos = {x: i for i, x in enumerate(S.elements)}
        self.subgroups: Optional[list[Subgroup]] = None
        self.masks: dict[frozenset, int] = {}
        self.by_mask: dict[int, Subgroup] = {}
        self.inner_maps: dict[int, frozenset] = {}
        self.answers: dict[tuple, dict] = {}
        self._cols: dict[int, tuple[int, ...]] = {}
        self._inner: Optional[list[tuple[int, ...]]] = None
        self._lattice: Optional[list[int]] = None
        self._joins: dict[tuple[int, int], int] = {}
        self._ups: dict[int, list[int]] = {}
        self._normalizers: dict[int, int] = {}
        self._aut_s: dict[int, Mapping[tuple[int, ...], int]] = {}

    def mask(self, xs: Iterable[Perm]) -> int:
        """Bitmask of a subset of S (KeyError for an element outside S)."""
        pos = self.pos
        m = 0
        for x in xs:
            m |= 1 << pos[x]
        return m

    def members(self, mask: int) -> tuple[Perm, ...]:
        els = self.elements
        return tuple(els[i] for i in range(len(els)) if mask >> i & 1)

    def action(self, g: Perm) -> tuple[tuple[int, ...], int]:
        """Conjugation by any g of the ambient group, on all of S at once.

        Returns ``(images, dom)``: ``images[i]`` is the position of
        ``s_i^g`` in S, or -1 when it leaves S, and ``dom`` is the mask of
        ``S ∩ S^(g^-1)``, the positions that have an image.
        """
        gi = inverse(g)
        get = self.pos.get
        images = tuple([get(tuple([g[x[k]] for k in gi]), -1)
                        for x in self.elements])
        return images, domain_mask(images)

    def cosets(self, elements: Sequence[Perm]
               ) -> Iterator[tuple[tuple[int, ...], int,
                                   list[tuple[int, Perm]]]]:
        """The right cosets rS that meet ``elements``, in the order met.

        Yields ``(images, dom, members)`` per coset: ``(images, dom)`` is
        ``action(r)`` for the first element r met, the only one
        conjugated directly, and ``members`` lists the pairs
        ``(t, r·s_t)`` of the coset that lie in ``elements``, t
        ascending, so ``(0, r)`` comes first.  For g = r·s_t,
        S^(g^-1) = S^(r^-1), so ``dom`` is the domain of every member;
        ``member_images`` gives their images.  ``elements`` need not be a
        union of cosets; members of a coset outside it are skipped.
        """
        todo = set(elements)
        for r in elements:
            if r not in todo:
                continue
            images, dom = self.action(r)
            members = []
            for t, g in enumerate(map(getter(r), self.elements)):
                if g in todo:
                    todo.discard(g)
                    members.append((t, g))
            yield images, dom, members

    def member_images(self, images: tuple[int, ...], ts: Iterable[int]
                      ) -> list[tuple[int, ...]]:
        """The images of r·s_t for each position t of ``ts``, from the
        ``images`` of r: s^(r·s_t) = (s^r)^(s_t), so they are ``images``
        read through ``inner(t)``, with -1 kept where s^r leaves S."""
        through = getter(images)
        return [through(self.inner(t) + (-1,)) for t in ts]

    def inner(self, s: int) -> tuple[int, ...]:
        """Conjugation by the element at position s: a permutation of
        positions."""
        if self._inner is None:
            self._inner = [self.action(x)[0] for x in self.elements]
        return self._inner[s]

    def normalizer(self, mask: int) -> int:
        """Mask of N_S(P) for the subgroup P with the given mask; memoized.

        P normalizes itself, so a right coset Ps lies wholly in N_S(P) or
        misses it: one member s of each coset is tested, P^s = P.
        """
        got = self._normalizers.get(mask)
        if got is None:
            ps = bit_positions(mask)
            got, todo = 0, (1 << len(self.elements)) - 1
            while todo:
                s = (todo & -todo).bit_length() - 1
                coset = image_mask(self.right(s), ps)
                todo &= ~coset
                if image_mask(self.inner(s), ps) == mask:
                    got |= coset
            self._normalizers[mask] = got
        return got

    def aut_s(self, mask: int) -> Mapping[tuple[int, ...], int]:
        """Aut_S(P) for the subgroup P with the given mask, by classes:
        each automorphism, as the images of P's positions, mapped to the
        mask of the elements of N_S(P) that induce it (a coset of
        C_S(P)).  Memoized, behind a read-only view."""
        got = self._aut_s.get(mask)
        if got is None:
            on_p = getter(bit_positions(mask))
            classes: dict[tuple[int, ...], int] = {}
            for s in bit_positions(self.normalizer(mask)):
                a = on_p(self.inner(s))
                classes[a] = classes.get(a, 0) | 1 << s
            got = self._aut_s[mask] = MappingProxyType(classes)
        return got

    def right(self, g: int) -> tuple[int, ...]:
        """Column g of the Cayley table: the position of s_i * s_g for
        every position i."""
        col = self._cols.get(g)
        if col is None:
            x, pos = self.elements[g], self.pos
            col = self._cols[g] = tuple([pos[compose(a, x)]
                                         for a in self.elements])
        return col

    def lattice(self) -> list[int]:
        """Masks of every subgroup of S, ordered by (order, members);
        computed on first use and kept.  S must be a p-group: GroupError
        otherwise, never a partial lattice.

        One order at a time.  A subgroup J > 1 of a p-group has a normal
        subgroup H of index p, and J = H ∪ Hx ∪ ... ∪ Hx^(p-1) for any x
        in J outside H.  So each subgroup H of the last order found is
        extended by each x of N_S(H) outside H with x^p in H, a right
        coset of H at a time, and the members of each J found are not
        tried again as x.
        """
        if self._lattice is not None:
            return self._lattice
        n = len(self.elements)
        p = next((d for d in range(2, n + 1) if n % d == 0), 1)  # least prime
        if n > 1 and _p_part(n, p) != n:
            raise GroupError(f"the subgroup lattice is built only for "
                             f"p-groups, and {n} is not a prime power")
        powers = []  # the position of x^p, for each position x
        for x in range(n):
            col, y = self.right(x), x
            for _ in range(p - 1):
                y = col[y]
            powers.append(y)
        subs, level = [1], [1]
        while level:
            found: set[int] = set()
            for h in level:
                hs = bit_positions(h)
                todo = self.normalizer(h) & ~h
                while todo:
                    x = (todo & -todo).bit_length() - 1
                    todo &= todo - 1
                    if h >> powers[x] & 1:
                        col, j, coset = self.right(x), h, hs
                        for _ in range(p - 1):  # the coset H x^k
                            coset = list(map(col.__getitem__, coset))
                            j |= sum(map((1).__lshift__, coset))
                        todo &= ~j
                        found.add(j)
            level = list(found)
            subs += level
        self._lattice = sorted(
            subs, key=lambda m: (m.bit_count(), bit_positions(m)))
        return self._lattice

    def join(self, a: int, b: int) -> int:
        """Mask of the subgroup generated by the subgroup mask ``a`` and
        any mask ``b``: the first overgroup of ``a`` in the lattice, which
        is ordered by size, that holds ``b``.  Memoized, as are the
        overgroups of ``a``."""
        key = (a, b)
        j = self._joins.get(key)
        if j is None:
            if a & b == b:
                j = a
            else:
                ups = self._ups.get(a)
                if ups is None:
                    ups = self._ups[a] = [m for m in self.lattice()
                                          if m & a == a]
                j = next(m for m in ups if m & b == b)
            self._joins[key] = j
        return j


def image_mask(images: tuple[int, ...], positions: Iterable[int]) -> int:
    """Mask of the images of ``positions``, all of which must have one."""
    m = 0
    for i in positions:
        m |= 1 << images[i]
    return m


# -- subgroup enumeration ---------------------------------------------------

def all_subgroups(G: FiniteGroup, within: Optional[Subgroup] = None
                  ) -> list[Subgroup]:
    """Every subgroup of G (or of ``within``), canonically ordered, from
    the bitmask lattice of :class:`SIndex`; the group must be a p-group
    (GroupError otherwise)."""
    H = within if within is not None else G.full_subgroup()
    if len(H) > SUBGROUP_ENUM_CAP:
        raise SizeCapExceeded(
            f"subgroup enumeration cap {SUBGROUP_ENUM_CAP} exceeded")
    idx = G.sindex(H)
    return [Subgroup(G, idx.members(m), check=False) for m in idx.lattice()]


# -- local analysis ---------------------------------------------------------

def centralizer_in(sub: Iterable[Perm], of: Iterable[Perm]) -> frozenset:
    """The elements of ``sub`` that commute with every element of ``of``."""
    of = [(x, getter(x)) for x in of]
    out = []
    for s in sub:
        s_then = getter(s)
        if all(s_then(x) == x_then(s) for x, x_then in of):
            out.append(s)
    return frozenset(out)


def centralizer(G: FiniteGroup, H: Subgroup) -> Subgroup:
    return Subgroup(G, centralizer_in(G.elements, H.elements), check=False)


def center(H: Subgroup) -> Subgroup:
    return Subgroup(H.parent, centralizer_in(H.elements, H.elements),
                    check=False)


def _p_part(n: int, p: int) -> int:
    m = 1
    while n % p == 0:
        n //= p
        m *= p
    return m


# Miller-Rabin on these bases decides primality exactly below the least
# strong pseudoprime to all of them (Sorenson and Webster, Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin on the first 13 prime bases, exact below
    ``_MR_BOUND`` (about 3.3e24).  A larger p raises GroupError: no group
    that can be enumerated has an order it divides."""
    if p >= _MR_BOUND:
        raise GroupError(f"p = {p} is too large: primality is decided "
                         f"only below {_MR_BOUND}")
    if p < 2 or any(p % a == 0 for a in _MR_BASES):
        return p in _MR_BASES
    r = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^r, d odd
    d = (p - 1) >> r
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def is_p_group(H: Subgroup, p: int) -> bool:
    return _p_part(H.order, p) == H.order


def sylow_subgroup(G: FiniteGroup, p: int) -> Subgroup:
    """One Sylow p-subgroup, grown deterministically by p-element adjunction.

    At each step the canonically least p-element of N_G(P) outside P is
    adjoined; P < Sylow always admits one, so the search stops when |P|
    is the p-part of |G|, and returns the trivial subgroup when p does
    not divide |G|.  N_G(P) is never built: each step scans G in
    canonical order for the first element outside P that conjugates the
    elements adjoined so far, which generate P, into P, and only then
    asks whether its order is a power of p.
    """
    if not is_prime(p):
        raise GroupError(f"{p} is not prime")
    sylow_order = _p_part(len(G), p)
    P, gens = G.trivial_subgroup(), []
    while len(P) < sylow_order:
        gens.append(next(
            y for y in G.elements
            if y not in P.eset
            and all(conjugate(a, y) in P.eset for a in gens)
            and _p_part(n := perm_order(y), p) == n))
        P = generated_subgroup(G, gens)
    return P


def p_core(G: FiniteGroup, p: int) -> Subgroup:
    """O_p(G): the intersection of all Sylow p-subgroups."""
    P = sylow_subgroup(G, p)
    core = set(P.eset)
    for g in G.elements:
        core &= {conjugate(x, g) for x in P.elements}
        if len(core) == 1:
            break
    return Subgroup(G, core, check=False)


def is_characteristic_p(G: FiniteGroup, p: int) -> bool:
    """True iff C_G(O_p(G)) <= O_p(G)."""
    Q = p_core(G, p)
    return centralizer(G, Q).eset <= Q.eset


# -- abstract groups via the regular action ---------------------------------

def cayley_group(elements: list, mul) -> tuple[FiniteGroup, dict]:
    """Permutation realization of an abstract group by right multiplication.

    Returns the realized group and the element -> permutation map.
    """
    idx = {x: i for i, x in enumerate(elements)}
    n = len(elements)
    to_perm = {x: tuple(idx[mul(e, x)] for e in elements) for x in elements}
    G = FiniteGroup(n, to_perm.values(), max_size=max(n, 1))
    return G, to_perm
