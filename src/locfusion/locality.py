"""Localities: objective partial groups with a distinguished p-subgroup.

A locality is stored as a finite carrier with integer ids, an involutive
inversion, a binary partial product, a p-subgroup S and an object set
delta of subgroups of S.  A word lies in the domain of the partial
product exactly when the subgroup S_w it carries through S belongs to
delta; the n-ary product is the left fold of the binary one.

The binary product is one row table, ``Locality.rows``: n + 1 tuples of
n + 1 ids, ``rows[i][j]`` the id of i·j, or -1 where (i, j) is not in
the domain.  Every row ends in -1 and the last row is all -1, so a
product read at -1 is -1 again and a left fold needs no test per step.
It costs (n + 1)² pointers: 2.5 MB for the 560 elements of L_delta(S7)
at p = 2, where a dict keyed by pairs takes 10.5 MB for its 94,464
pairs (5.2 MB of table and 5.3 MB of key tuples).  The
construction, the validator and the partial-subgroup predicates work a
row at a time, through ``map`` and ``operator.itemgetter`` in C;
``Locality.prod`` is a read-only pair-keyed view of the rows for
callers outside the package.

Inside a locality, S is indexed as positions ``0..|S|-1`` in the order of
``s_ids``: the identity first, then ascending ids.  That is the order of
``Locality.s_index``, the index of S in its permutation group
(``group_on``), so L and F_S(L) share the positions of S and no mask is
translated between them.  Every subset of S is an ``int`` bitmask over
those positions: delta is a set of masks, S_w is a mask, and the
S-lattice is the list of masks of the index.  Each carrier element f
induces the partial injective map s -> s^f on positions wherever the
conjugate stays in S; S_w is the domain of the composite map along w.
Elements with the same map form a class (``Locality._cls``: 20 classes
for the 208 elements of L_delta(S6) at p = 2, 44 for the 560 of S7), and
S_w depends on the letters of w only through their classes, so every
domain question is decided once per class.  The classes are read off
the tables, valid or not, so this holds for any tables.  Domain
questions are answered without building the composite: the preimage of
a mask under one class's map is cached per (class, mask), and S_w is
the preimage of S walked through w from the right.
Words with the same (left-fold value, composite map) pair behave
identically under the checks performed here, and one explorer
(``_word_states``) walks those states up to a word-length bound, keeping
one representative word per state.  One check (``_check_delta_closures``)
decides whether a family of masks is an object set.

The letters a state extends by, and the composite maps they lead to,
depend only on its composite map, so the explorer decides them once per
composite map, by the domain of that map followed by each letter class,
and splits them into blocks, one per composite map they lead to.  Each
composite map keeps the set of fold values its states have, and a state
is decided a block at a time: one getter reads the block's fold values
off the state's row, and one superset test of that set shows the block
reaches no new state and no failure.  Only the other blocks are read a
letter at a time, in letter order.  The split check of the validator
groups the left states by the right states they take, which depend only
on the domains their composite map admits and their length, and plans
each group once: its admitted right states split by the prefix of their
representative words, which is the parent state's representative, with
a getter of their last letters and one of their fold values per prefix.
A left state's row is folded along each prefix and read by the two
getters; right states of length 1 need one read, and none for a left
state of length 1 whose row fits its class.  The check follows one
representative word per right state, so it can miss a corrupted entry
that only other words of that state reach.

A locality realized by a group G is built a right coset of S at a time
(``locality_from_group``): S_(r·t) = S_r for t in S, so the carrier is a
union of cosets, and a row's block over a coset is read off the Cayley
table of S from one product with the coset's first element.  Its
realization oracle checks the rows a class at a time: a row defined on
exactly the columns its class admits reads them with the class's
getter, and only other rows find their own.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Mapping
from operator import itemgetter, ne, not_
from typing import Collection, Iterable, Iterator, Optional, Sequence

from .fusion import (DEFAULT_MORPHISM_CAP, centric_radicals,
                     fully_normalized_conjugate, fusion_of_locality,
                     is_saturated, subgroup_lattice)
from .permgroup import (FiniteGroup, SIndex, Subgroup,
                        bit_positions, cayley_group, domain_mask, getter,
                        image_mask, inverse, is_p_group,
                        _p_part)

Word = tuple[int, ...]

_defined = (0).__le__  # v -> v >= 0, for a position or -1

# the word-length bound of the validator and the partial-subgroup predicates
DEFAULT_MAX_WORD_LENGTH = 4


class LocalityError(ValueError):
    """Invalid locality construction or precondition."""


# one validator check: its name, whether it passed, and a witness string
CheckResult = namedtuple("CheckResult", "name passed witness",
                         defaults=(None,))


class ValidationReport:
    def __init__(self):
        self.checks = []  # CheckResult, in the order they ran
        self.bounded_only = True
        self.max_word_length = DEFAULT_MAX_WORD_LENGTH

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "max_word_length": self.max_word_length,
            "bounded_check_only": self.bounded_only,
            "checks": [{"name": c.name, "passed": c.passed,
                        **({"witness": c.witness} if c.witness else {})}
                       for c in self.checks],
        }


def _mask(pos: dict, xs: Iterable) -> int:
    """Mask of a delta member over the positions ``pos`` of S."""
    m = 0
    for x in xs:
        i = pos.get(x)
        if i is None:
            raise LocalityError("delta member is not a subgroup of S")
        m |= 1 << i
    return m


class _ProductView(Mapping):
    """Read-only view of the rows as {(i, j): i·j} over the pairs of D.

    Nothing in the package loops over it: it serves ``len()`` (counted
    once, at construction) and pair-keyed reads from outside."""

    __slots__ = ("_rows", "_n", "_len")

    def __init__(self, rows: tuple[tuple[int, ...], ...], n: int):
        self._rows, self._n = rows, n
        self._len = n * (n + 1) - sum(r.count(-1) for r in rows[:n])

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        if 0 <= i < self._n and 0 <= j < self._n and self._rows[i][j] >= 0:
            return self._rows[i][j]
        raise KeyError(key)

    def __iter__(self):
        cols = range(self._n)
        for i, row in zip(cols, self._rows):
            for j in itertools.compress(cols, map(_defined, row)):
                yield i, j

    def __len__(self) -> int:
        return self._len


def _preimage_under(m: Sequence[int], mask: int) -> int:
    """Mask of the positions i with ``m[i]`` defined (not -1) and in
    ``mask``: the preimage of ``mask`` under a map on positions."""
    return sum(1 << i for i, v in enumerate(m) if v >= 0 and mask >> v & 1)


def _check_ids(n: int, what: str, xs: Sequence[int]) -> None:
    """LocalityError naming the first entry of ``xs`` outside range(n)."""
    ids = range(n)
    for k, x in enumerate(xs):
        if x not in ids:
            raise LocalityError(
                f"{what} entry {k} holds {x!r}, not an id in range({n})")


def _check_rows(n: int, rows: Sequence[tuple[int, ...]]) -> None:
    """LocalityError naming the first row that does not hold n entries,
    each an id in range(n) or -1 (each row here carries its trailing
    -1)."""
    if len(rows) != n:
        raise LocalityError(f"product table has {len(rows)} rows for {n} ids")
    entries = frozenset(range(-1, n))
    for i, r in enumerate(rows):
        if len(r) != n + 1:
            raise LocalityError(
                f"product row {i} has {len(r) - 1} entries for {n} ids")
        if not entries.issuperset(r):
            j = next(j for j, k in enumerate(r) if not -1 <= k < n)
            raise LocalityError(f"product row {i} entry {j} holds {r[j]!r}, "
                                f"not an id in range({n}) or -1")


class Locality:
    """(L, delta, S) with partial product given by a row table.

    ``rows`` is the row table of the module docstring: ``rows[i][j]`` is
    the id of i·j, or -1 off the domain D, and ``rows[rows[i][j]][k]`` is
    -1 whenever i·j is.  ``prod`` is a read-only pair-keyed view of it.

    ``labels`` are stable hashable names for the carrier elements
    (ambient permutations for group-realized instances); set-valued
    results are exchanged as label sets so that sub-localities remain
    comparable with their parents.  ``delta`` is given as sets of ids of
    S and stored as masks over the positions of S.

    The tables (carrier, inversion, product, S and delta) are not
    mutated after construction: the partial maps ``_pm`` built from
    them and their classes ``_cls``, the preimage cache behind
    ``s_mask``, ``s_group`` and the answers kept in ``_verdicts`` all
    rely on that.  Those answers are F_S(L) and the locality-route
    precondition of ``products`` (each declared with ``fusion.kept``),
    and the memos of the partial-subgroup predicates.

    L keeps its run's bounds, as a fusion system keeps its cap:
    ``max_word_length`` for the validator and the partial-subgroup
    predicates, ``morphism_cap`` for F_S(L) and its partial subgroups'
    systems.  Sub-localities inherit both.
    """

    def __init__(self, labels: Sequence, identity: int, inv: Sequence[int],
                 rows: Iterable[Iterable[int]], s_ids: Iterable[int],
                 p: int, delta: Iterable[Iterable[int]],
                 realization: Optional[FiniteGroup] = None,
                 max_word_length: int = DEFAULT_MAX_WORD_LENGTH,
                 morphism_cap: int = DEFAULT_MORPHISM_CAP):
        """``rows`` holds n rows of n entries, each an id in range(n) or
        -1; the identity, the inverse table and S must hold ids in
        range(n) (LocalityError naming the row or entry otherwise)."""
        self.max_word_length = max_word_length
        self.morphism_cap = morphism_cap
        self.labels = tuple(labels)
        n = self.n = len(self.labels)
        self.identity = identity
        self.inv = tuple(inv)
        s_ids = tuple(s_ids)
        if identity not in range(n):
            raise LocalityError(f"identity {identity!r} is not an id in "
                                f"range({n})")
        if len(self.inv) != n:
            raise LocalityError(
                f"inverse table has {len(self.inv)} entries for {n} ids")
        _check_ids(n, "inverse table", self.inv)
        _check_ids(n, "S", s_ids)
        self.s_ids = tuple(sorted(s_ids, key=lambda s: (s != identity, s)))
        rows = tuple((*r, -1) for r in rows)
        _check_rows(n, rows)
        self.rows = rows + ((-1,) * (n + 1),)
        self.prod = _ProductView(self.rows, n)
        self.p = p
        self._s_pos = {s: i for i, s in enumerate(self.s_ids)}
        self.delta = frozenset(self.mask_of(P) for P in delta)
        self.realization = realization
        self.id_of = {lab: i for i, lab in enumerate(self.labels)}
        # the class of f: the id of its distinct partial map, in the
        # order of first appearance; elements of a class share the tuple
        cls: dict[tuple[int, ...], int] = {}
        self._cls = tuple(cls.setdefault(m, len(cls))
                          for m in self._build_partial_maps())
        self._cmaps = tuple(cls)  # class -> its partial map
        self._pm = tuple(map(self._cmaps.__getitem__, self._cls))
        self._csf = tuple(map(domain_mask, self._cmaps))  # class -> S_f
        self._sf = tuple(map(self._csf.__getitem__, self._cls))
        self._full = (1 << len(self.s_ids)) - 1
        self._pre: dict[tuple[int, int], int] = {}  # (class, mask) -> preimage
        self._s: Optional[Subgroup] = None  # S in its permutation group
        self._verdicts: dict = {}  # the answers kept on L

    # -- construction helpers ----------------------------------------------

    def _build_partial_maps(self) -> tuple[tuple[int, ...], ...]:
        """pm[f][i] = position of s_i^f in S, or -1 when undefined.

        s^f is evaluated as the left fold of (f^-1, s, f) through the
        rows, a row of f^-1 at a time; in a valid locality this agrees
        with the n-ary product on that word.  Every map on positions
        here, rows and composites alike, carries one extra entry -1 at
        the end, so that ``pf[-1] == -1`` and composing by indexing keeps
        undefined points undefined.
        """
        rows, s_ids = self.rows, self.s_ids
        pos = [-1] * (self.n + 1)  # id -> position in S, or -1
        for i, s in enumerate(s_ids):
            pos[s] = i
        return tuple(
            (*map(pos.__getitem__, map(itemgetter(f), map(
                rows.__getitem__, map(rows[fi].__getitem__, s_ids)))), -1)
            for f, fi in enumerate(self.inv))

    @property
    def lattice(self) -> list[int]:
        """Masks of every subgroup of S, ordered by (order, members): the
        lattice of ``s_index``, computed on first use and kept there."""
        return self.s_index.lattice()

    # -- basic queries -------------------------------------------------------

    def label_set(self, ids: Iterable[int]) -> frozenset:
        return frozenset(self.labels[i] for i in ids)

    def ids_of_labels(self, labs: Iterable) -> tuple[int, ...]:
        return tuple(sorted(self.id_of[l] for l in labs))

    def mask_of(self, ids: Iterable[int]) -> int:
        """Mask of a set of ids of S (LocalityError for an id outside S)."""
        return _mask(self._s_pos, ids)

    def ids_of(self, mask: int) -> frozenset[int]:
        """The ids of S in a mask."""
        return frozenset(self.s_ids[i] for i in bit_positions(mask))

    def preimage(self, f: int, mask: int) -> int:
        """Mask of the positions i with s_i^f defined and in ``mask``;
        cached per (class of f, mask), since it depends on f only
        through its map."""
        key = (self._cls[f], mask)
        pre = self._pre.get(key)
        if pre is None:
            pre = self._pre[key] = _preimage_under(self._pm[f], mask)
        return pre

    def s_mask(self, w: Word) -> int:
        """S_w as a mask; S itself for the empty word.  It is the preimage
        of S walked through w from the right, pre_{w1}(... pre_{wk}(S)),
        which is the domain of the composite map along w for any tables,
        valid or not."""
        mask = self._full
        for f in reversed(w):
            mask = self.preimage(f, mask)
        return mask

    def fold(self, w: Word) -> Optional[int]:
        """Left fold of the binary product; None when a step is undefined
        (-1 stays -1 through the all -1 row)."""
        x, rows = self.identity, self.rows
        for f in w:
            x = rows[x][f]
        return x if x >= 0 else None

    def s_group(self) -> Subgroup:
        """S as a subgroup of its permutation group (``group_on``), built
        on first use and kept.  Its index must hold ``s_ids[i]`` at
        position i, which fails (LocalityError) only when the identity of
        the S-table is not L's, a fault ``s_subgroup`` reports."""
        if self._s is None:
            G, to_perm = self.group_on(self.s_ids)
            S = Subgroup(G, to_perm.values(), check=False)
            if G.sindex(S).elements != tuple(map(to_perm.__getitem__,
                                                 self.s_ids)):
                raise LocalityError("S is not indexed in the order of its "
                                    "ids: the identity of S is not L's")
            self._s = S
        return self._s

    @property
    def s_index(self) -> SIndex:
        """The index of S (``s_group``), kept on its group: position i is
        ``s_ids[i]``, so the masks of L are the masks of the index."""
        S = self.s_group()
        return S.parent.sindex(S)

    # -- local subgroups as genuine groups ----------------------------------

    def group_on(self, ids: Iterable[int]) -> tuple[FiniteGroup, dict]:
        """A permutation group holding the elements ``ids``, and the
        id -> permutation map.

        This is the one place that chooses: the ambient realization when
        there is one, else the regular action of ``ids``, which must then
        be product-total.  Its points are ``ids`` with the identity first,
        so the permutation of x starts with the point of x, and the
        canonical order of the permutations is the order of the points.
        """
        ids = sorted(ids, key=lambda i: (i != self.identity, i))
        if self.realization is not None:
            return (self.realization,
                    {i: self.labels[i] for i in ids})
        rows = self.rows

        def mul(a, b):
            c = rows[a][b]
            if c < 0:
                raise LocalityError("subset is not product-total")
            return c
        G, to_perm = cayley_group(ids, mul)
        return G, {i: to_perm[i] for i in ids}


# -- construction of group-realized localities -------------------------------

def delta_min_order(S: Subgroup, min_order: int) -> list[Subgroup]:
    return [P for P in subgroup_lattice(S) if P.order >= min_order]


def locality_from_group(G: FiniteGroup, S: Subgroup, delta: Iterable[Subgroup],
                        p: int, max_word_length: int = DEFAULT_MAX_WORD_LENGTH,
                        morphism_cap: int = DEFAULT_MORPHISM_CAP) -> Locality:
    """The standard realization L_delta(G) = {g : S cap S^(g^-1) in delta}.

    delta must be overgroup-closed in S and closed under the conjugation
    maps of G between subgroups of S (LocalityError otherwise).  The
    result is not validated here; ``validate_locality`` checks it.

    The carrier is built a right coset of S at a time: S_(r·t) = S_r for
    t in S, so S_r in delta is tested once per coset (``SIndex.cosets``),
    and the maps of the elements are derived for the carrier cosets
    only.  The rows come from ``_coset_rows``.
    """
    delta = list(delta)
    six = S.parent.sindex(S)
    dmasks = {_mask(six.pos, P.elements) for P in delta}

    # per carrier coset rS: S_r, its members r·s_t in t order, and their
    # maps.  The maps are all the Delta-closure check needs: a member
    # inside S_g for g outside the carrier would miss the overgroup S_g,
    # which the check reports first.
    doms, members, maps = [], [], []
    for images, dom, coset in six.cosets(G.elements):
        if dom in dmasks:
            doms.append(dom)
            members.append([g for _, g in coset])
            # G holds each coset whole, so t runs over all positions of S
            maps.append(six.member_images(images, range(len(coset))))
    if not is_p_group(S, p):  # before the lattice, which needs a p-group
        raise LocalityError("S must be a p-group")
    bad = _check_delta_closures(six.lattice(), dmasks, [
        (m, dom) for dom, ms in zip(doms, maps) for m in ms])
    if bad is not None:
        raise LocalityError(bad)

    labels = tuple(sorted(itertools.chain.from_iterable(members)))
    idx = {g: i for i, g in enumerate(labels)}
    s_ids = tuple(idx[s] for s in S.elements)
    identity = idx[G.identity]
    inv = tuple(idx[inverse(g)] for g in labels)
    delta_ids = [frozenset(idx[s] for s in P.elements) for P in delta]
    rows = _coset_rows(six, dmasks, labels, idx, doms, members, maps)
    del idx, doms, members, maps  # the rows hold them until the last one

    return Locality(labels, identity, inv, rows, s_ids, p, delta_ids,
                    realization=G, max_word_length=max_word_length,
                    morphism_cap=morphism_cap)


def _coset_rows(six: SIndex, dmasks: Collection[int], labels: Sequence,
                idx: dict, doms: Sequence[int], members: Sequence[list],
                maps: Sequence[list]) -> Iterator[tuple[int, ...]]:
    """The product rows of L_delta(G), n entries each, in id order.

    ``labels`` are the carrier elements in id order (``idx`` inverts
    them), and ``doms``, ``members`` and ``maps`` hold, per carrier coset
    rS, S_r, the members r·s_t in t order and their maps on the
    positions of S (``six``).  The rows are made one at a time as they
    are read, so ``Locality`` never holds them next to its padded copy,
    and the tables here are freed once the last row is read.

    (f, r·s_t) is composable iff pre_f(S_r) is in delta, which depends
    on f only through its map: the composable cosets are listed once per
    map.  If f·r = r'·s_u, then f·(r·s_t) = r'·(s_u·s_t) for every t,
    so the block of f's row over rS is the ids of r'S read through row u
    of the Cayley table of S: one composition per row and composable
    coset, in place of one per product pair.  The row is assembled in
    coset order and put in id order by one getter.
    """
    ns = len(six.elements)
    where = {g: (c, t) for c, gs in enumerate(members)
             for t, g in enumerate(gs)}  # r·s_t -> (its coset, t)
    ids = [tuple(map(idx.__getitem__, gs)) for gs in members]
    # row u of the Cayley table: the positions of s_u·s_t, t in order
    times = [getter([six.right(t)[u] for t in range(ns)]) for u in range(ns)]
    # a row in coset order (block c, entry t) -> the row in id order
    order = getter([c * ns + t for c, t in map(where.__getitem__, labels)])
    empty = [-1] * len(labels)
    admitted: dict = {}  # map -> (composable cosets, their first members)
    for f in labels:
        c, t = where[f]
        images = maps[c][t]
        if images not in admitted:
            ok = {d: _preimage_under(images, d) in dmasks for d in set(doms)}
            cs = [c2 for c2, d in enumerate(doms) if ok[d]]
            admitted[images] = cs, [members[c2][0] for c2 in cs]
        cs, firsts = admitted[images]
        row = empty.copy()
        for c2, (c3, u) in zip(cs, map(where.__getitem__,
                                       map(getter(f), firsts))):
            row[c2 * ns:(c2 + 1) * ns] = times[u](ids[c3])
        yield order(row)


def _check_delta_closures(lattice: Sequence[int], delta: Collection[int],
                          maps: Iterable[tuple[Sequence[int], int]]
                          ) -> Optional[str]:
    """Why ``delta`` is not an object set on S, or None when it is.

    ``lattice`` holds the masks of every subgroup of S, ordered by
    (order, members), so S is last; ``delta`` holds masks over the same
    positions, and ``maps`` the conjugation maps ``(images, dom)`` on S
    (as from ``SIndex.action``) that delta must be closed under.  Every
    member must be a subgroup of S; then, member by member in lattice
    order, every overgroup must be a member and every map defined on the
    member must send it to a member; last, S must be a member.
    """
    subs = set(lattice)
    if any(d not in subs for d in delta):
        return "delta member is not a subgroup of S"
    members = [(d, bit_positions(d)) for d in lattice if d in delta]
    escapes = set()  # members sent outside delta by some map
    for images, dom in maps:
        for d, ps in members:
            if d & dom == d and d not in escapes \
                    and image_mask(images, ps) not in delta:
                escapes.add(d)
    for d, _ in members:
        for q in lattice:
            if q & d == d and q not in delta:
                return ("delta is not overgroup-closed: missing overgroup "
                        f"of order {q.bit_count()}")
        if d in escapes:
            return "delta is not closed under conjugation maps into S"
    if lattice[-1] not in delta:
        return "delta must contain S"
    return None


# -- the validator -----------------------------------------------------------

def _word_states(L: Locality, max_len: int,
                 letters: Optional[Iterable[int]] = None):
    """All (fold value, composite partial map) states of domain words
    over ``letters`` (the whole carrier by default), up to ``max_len``.

    Returns ``(states, failures)``: ``states`` maps each state to its
    minimal length and a representative word, in the order the states
    are first reached, and ``failures`` lists the domain words whose
    left fold is undefined or leaves the letters.

    Composite maps are few (69 on S7 at length 3, against 1,136 states),
    so each gets an id; the maps of the classes of L take the first ids.
    A word with composite map m extends by f exactly when the domain of
    m followed by the map of f, which is the preimage of S_f under m,
    is in delta.  So the letters a state extends by, and the map ids of
    the extensions, depend only on its map id: they are decided once
    per map id, one composition and one delta test per letter class.
    The letters admitted for a map id fall into blocks, one per map id
    they lead to, and each map id keeps the set of fold values its
    states have.  A state is decided a block at a time: the block's
    getter reads the fold values from the state's row, and one superset
    test says whether all of them are letters already reached with the
    block's map id, so that the block adds no state and no failure.
    Only the letters of the other blocks are taken one at a time, in
    letter order across blocks.  On S7 at length 3 that is 8,960 block
    tests for the 1,136 states, in place of 166k (state, letter) pairs.
    """
    letters = range(L.n) if letters is None else sorted(letters)
    inside = [False] * (L.n + 1)  # inside[-1] is False, for an undefined fold
    for f in letters:
        inside[f] = True
    cls, cmaps, rows, delta = L._cls, L._cmaps, L.rows, L.delta
    of_cls: dict[int, list[int]] = {}  # letter class -> its letters
    for f in letters:
        of_cls.setdefault(cls[f], []).append(f)
    ids = {m: c for c, m in enumerate(cmaps)}  # composite map -> map id
    maps = list(cmaps)  # map id -> composite map
    doms = list(L._csf)  # map id -> domain of the map
    reached = [set() for _ in maps]  # map id -> fold values of its states
    blocks: list = [None] * len(maps)  # map id -> its blocks

    def map_id(m: tuple[int, ...]) -> int:
        if m not in ids:
            ids[m] = len(maps)
            maps.append(m)
            doms.append(domain_mask(m))
            reached.append(set())
            blocks.append(None)
        return ids[m]

    def blocks_of(mid: int) -> list[tuple]:
        """(fold values reached with t, getter, letters, t) per map id t
        in delta that the letters admitted for ``mid`` lead to."""
        after = itemgetter(*maps[mid])
        to: dict[int, list[int]] = {}  # map id after -> its letters
        for c, fs in of_cls.items():
            t = map_id(after(cmaps[c]))
            if doms[t] in delta:
                to.setdefault(t, []).extend(fs)
        out = []
        for t, fs in to.items():
            fs = tuple(sorted(fs))  # shared with itemgetter(*fs), not copied
            out.append((reached[t], getter(fs), fs, t))
        return out

    seen: dict[tuple[int, int], tuple[int, Word]] = {}
    failures = []
    frontier = {}
    for f in letters:
        st = (f, cls[f])
        if st not in seen:
            seen[st] = (1, (f,))
            frontier[st] = (f,)
            reached[cls[f]].add(f)
    length = 1
    while frontier and length < max_len:
        length += 1
        new = {}
        for (pi, mid), word in frontier.items():
            if blocks[mid] is None:
                blocks[mid] = blocks_of(mid)
            row = rows[pi]
            # the letters of blocks that fail the superset test, whose
            # fold value was not reached with the block's map id
            odd = [(f, v, t) for known, at, fs, t in blocks[mid]
                   if not known.issuperset(vs := at(row))
                   for f, v in zip(fs, vs) if v not in known]
            # in letter order, so the first word reaching a state names it
            odd.sort()
            for f, v, t in odd:
                if not inside[v]:
                    failures.append(word + (f,))
                elif v not in reached[t]:
                    reached[t].add(v)
                    seen[v, t] = (length, word + (f,))
                    new[v, t] = word + (f,)
        frontier = new
    return {(pi, maps[mid]): v for (pi, mid), v in seen.items()}, failures


def validate_locality(L: Locality, max_word_length: Optional[int] = None
                      ) -> ValidationReport:
    """Check the locality axioms on the words up to the length bound:
    ``max_word_length`` when given, else L's own.

    Words are explored through (product, map) states, one
    representative word each, and every state is visited.  The fold and
    S_w checks depend only on a word's state.  The split check
    (``_split_fault``) takes the left states a group at a time, by the
    right states they admit, and folds Pi(u) along the representative
    word of each admitted right state only, so it can miss a corrupted
    entry that only other words of a state reach: it is not exhaustive.
    """
    if max_word_length is None:
        max_word_length = L.max_word_length
    rep = ValidationReport()
    rep.max_word_length = max_word_length
    add = rep.checks.append

    # S is a p-group under a total product: the S-lattice is built from it
    s_wit = _s_group_fault(L)
    add(CheckResult("s_subgroup", s_wit is None, s_wit))

    # identity and inversion laws
    ok, wit = True, None
    rows, inv, e = L.rows, L.inv, L.identity
    for f in range(L.n):
        if inv[inv[f]] != f:
            ok, wit = False, f"inversion not involutive at {f}"
            break
        if rows[e][f] != f or rows[f][e] != f:
            ok, wit = False, f"identity law fails at {f}"
            break
        if rows[f][inv[f]] != e or rows[inv[f]][f] != e:
            ok, wit = False, f"inversion law fails at {f}"
            break
    add(CheckResult("identity_and_inversion", ok, wit))

    # S_f in delta for every f
    bad = next((f for f in range(L.n) if L._sf[f] not in L.delta), None)
    add(CheckResult("s_f_in_delta", bad is None,
                    None if bad is None else f"element {bad}"))

    # objectivity at length 2: (f,g) defined iff S_(f,g) = pre_f(S_g)
    # in delta, that is, every row fits its class
    ok, wit = True, None
    objs_of, fits = _class_reads(L)
    if not all(fits):
        f = fits.index(False)
        objs, row = objs_of[L._cls[f]][0], rows[f]
        g = next(g for g in range(L.n) if objs[g] != (row[g] >= 0))
        ok, wit = False, (f"pair ({f},{g}): defined={row[g] >= 0}, "
                          f"S_w in delta={objs[g]}")
    add(CheckResult("objectivity_len2", ok, wit))

    # delta closure properties, on the S-lattice, which is only built
    # from an S-table that passed ``s_subgroup``
    if s_wit is None:
        bad = _check_delta_closures(L.lattice, L.delta,
                                    zip(L._cmaps, L._csf))
    else:
        bad = f"not checked: s_subgroup failed ({s_wit})"
    add(CheckResult("delta_closure", bad is None, bad))

    # domain words: folds defined, splitting/associativity, S_w transport
    states, fold_failures = _word_states(L, max_word_length)
    add(CheckResult("fold_defined_on_domain", not fold_failures,
                    f"word {fold_failures[0]!r}" if fold_failures else None))

    # the map of Pi w agrees with the composite map of w on its domain:
    # one getter per composite map reads its domain, one compare a state
    bad, reads = None, {}  # composite map -> (getter of its domain, values)
    for (pi, m), (_, word) in states.items():
        r = reads.get(m)
        if r is None:
            at = getter(list(itertools.compress(range(len(m)),
                                                map(_defined, m))))
            r = reads[m] = (at, at(m))
        if r[0](L._pm[pi]) != r[1]:
            bad = word
            break
    add(CheckResult("s_w_through_product", bad is None, None if bad is None
                    else f"word {bad!r}: S_w image differs from S_w^(Pi w)"))

    wit = _split_fault(L, states, max_word_length, fits)
    add(CheckResult("associativity_by_splitting", wit is None, wit))

    # maximality of S among p-subgroups of the carrier
    add(_check_s_maximal(L))

    # realization oracle, with the columns each class admits
    if L.realization is not None:
        wit = _realization_fault(L, fits, [o[1] for o in objs_of])
        add(CheckResult("realization_oracle", wit is None, wit))

    rep.bounded_only = L.realization is None
    return rep


def _class_reads(L: Locality) -> tuple[list[tuple], list[bool]]:
    """What objectivity at length 2 reads off L, once per class.

    (f, g) is in D iff S_(f,g) = pre_f(S_g) is in delta, which is decided
    once per (class of f, S_g).  Per class, ``objs_of`` holds that answer
    for each column g, the getters of the columns the class admits and of
    the others, and the count of the others.  A row ``fits`` its class
    when it is defined at exactly the columns its class admits: no -1 in
    the one read and only -1 in the other."""
    cols = range(L.n)
    objs_of = []  # class -> ([(f,g) in D? for each g], the two reads, count)
    for m in L._cmaps:
        objs = list(map({d: _preimage_under(m, d) in L.delta
                         for d in set(L._csf)}.__getitem__, L._sf))
        ins = list(itertools.compress(cols, objs))
        outs = list(itertools.compress(cols, map(not_, objs)))
        objs_of.append((objs, getter(ins), getter(outs), len(outs)))
    fits = [-1 not in at_in(row) and at_out(row).count(-1) == n_out
            for (_, at_in, at_out, n_out), row
            in zip(map(objs_of.__getitem__, L._cls), L.rows)]
    return objs_of, fits


def _realization_fault(L: Locality, fits: Sequence[bool],
                       at_class: Sequence) -> Optional[str]:
    """The first defined pair (i, j), in (i, j) order, whose product id
    is not the product of the labels in the realization, or None.

    It is decided a point at a time: (i·j)[x] = j[i[x]], so at each
    point x the x-th coordinates of the products in row i must be the
    i[x]-th coordinates of the j.  A row that ``fits`` its class is
    defined on the columns the class admits, read by the getter
    ``at_class[c]``, so the rows of a class are checked together, and
    the coordinates of those columns at each point are read once per
    class; any other row finds its own defined columns.
    """
    rows, labels, cols = L.rows, L.labels, range(L.n)
    coords = list(zip(*labels))  # point -> its coordinate in each id
    groups: dict = {}  # class, or (i,) for a row that does not fit it
    for i, (c, fit) in enumerate(zip(L._cls, fits)):
        if fit:
            groups.setdefault(c, (at_class[c], []))[1].append(i)
        else:
            groups[(i,)] = (getter(list(itertools.compress(
                cols, map(_defined, rows[i])))), [i])
    bad = []  # the first disagreeing row of each group
    for at_j, ids in groups.values():
        at = list(map(at_j, coords))  # point y -> the y-th coordinates
        i = next((i for i in ids if any(map(
            ne, map(getter(at_j(rows[i])), coords),
            map(at.__getitem__, labels[i])))), None)
        if i is not None:
            bad.append(i)
    if not bad:
        return None
    i = min(bad)
    row = rows[i]
    js = list(itertools.compress(cols, map(_defined, row)))
    got = list(map(getter(labels[i]), map(labels.__getitem__, js)))
    want = list(map(labels.__getitem__, map(row.__getitem__, js)))
    j = next(j for j, a, b in zip(js, got, want) if a != b)
    return f"pair ({i},{j}) disagrees with the ambient product"


def _split_fault(L: Locality, states: dict, max_len: int,
                 fits: Sequence[bool]) -> Optional[str]:
    """The first split u|v of a domain word into two states whose fold
    differs from Pi(u)Pi(v), or None: the first left state u, in state
    order, with such a right state v, and its first such v in state order.

    Which right states a left state takes depends only on its composite
    map m1 and its length l1: v is admitted when l1 + l2 is within the
    bound and the preimage of S_v under m1 is in delta.  So the left
    states are taken a group at a time, one group per (the S_v that m1
    admits, l1), and each group gets a plan: its admitted right states, in
    state order, split by the prefix w2[:-1] of their representative
    word w2, with a getter of their last letters and a getter of their
    Pi(v).  A right state's representative is its parent's plus one
    letter, so the fold of Pi(u) along it is the fold along the prefix,
    one row, read by the getter of last letters; it is compared with the
    row of Pi(u) read at the Pi(v).  One plan is alive at a time, and a
    group whose first left state comes after a faulty one is not planned.

    For v = (g) of length 1, Pi(v) is g, the fold and Pi(u)Pi(v) are one
    read of Pi(u)'s row, and only an undefined entry is a fault.  For u =
    (f) of length 1 too, m1 is the map of f's class, so that read is
    skipped when f's row ``fits`` its class: it is then defined at every
    g the class admits, which are the g admitted here.

    The check follows one representative word per right state, so it can
    miss a corrupted entry that only other words of that state reach.
    """
    rows, delta = L.rows, L.delta
    items = list(states.items())
    dom_of: dict[tuple[int, ...], int] = {}  # composite map -> its domain
    # prefix -> (state indices, last letters, Pi(v), S_v) of the right
    # states with a representative word of that prefix, in state order
    right: dict[Word, tuple[list, list, list, list]] = {}
    for k, ((pi, m), (_, word)) in enumerate(items):
        d = dom_of.get(m)
        if d is None:
            d = dom_of[m] = domain_mask(m)
        ks, lasts, pis, ds = right.setdefault(word[:-1], ([], [], [], []))
        ks.append(k)
        lasts.append(word[-1])
        pis.append(pi)
        ds.append(d)
    doms = set(dom_of.values())
    admits: dict[tuple[int, ...], frozenset] = {}  # m1 -> S_v it admits
    left: dict[tuple[frozenset, int], list[int]] = {}  # group -> states
    for k, ((_, m), (length, _)) in enumerate(items):
        if length < max_len:
            a = admits.get(m)
            if a is None:
                a = admits[m] = frozenset(
                    d for d in doms if _preimage_under(m, d) in delta)
            left.setdefault((a, length), []).append(k)
    found = None  # (left state, right state) of the first fault
    for (admitted, l1), ks1 in left.items():  # in order of first state
        if found is not None and ks1[0] > found[0]:
            break
        singles = None  # (state indices, getter of g) of the v = (g)
        plan = []  # (prefix, state indices, getter of last letters, of Pi)
        for prefix, (ks, lasts, pis, ds) in right.items():
            if l1 + len(prefix) + 1 > max_len:
                continue
            on = list(map(admitted.__contains__, ds))
            if not any(on):
                continue
            at = getter(list(itertools.compress(lasts, on)))
            if prefix:
                plan.append((prefix, list(itertools.compress(ks, on)), at,
                             getter(list(itertools.compress(pis, on)))))
            else:
                singles = (list(itertools.compress(ks, on)), at)
        for k1 in ks1:
            if found is not None and k1 > found[0]:
                break
            p1 = items[k1][0][0]
            row = rows[p1]
            bad = []
            if singles is not None and not (l1 == 1 and fits[p1]):
                q = singles[1](row)
                if -1 in q:
                    bad.append(singles[0][q.index(-1)])
            for prefix, ks, at_last, at_pi in plan:
                x = row
                for f in prefix:
                    x = rows[x[f]]
                q, want = at_last(x), at_pi(row)
                if q != want or -1 in q:
                    bad.append(next(k for k, a, b in zip(ks, q, want)
                                    if a < 0 or a != b))
            if bad:
                found = (k1, min(bad))
                break
    if found is None:
        return None
    return (f"split {items[found[0]][1][1]!r}|{items[found[1]][1][1]!r}: "
            "fold != Pi(u)Pi(v)")


def _s_group_fault(L: Locality) -> Optional[str]:
    """Why the product on S is not a p-group table, or None: S holds the
    identity, is closed under the product and inversion, the product on
    it has the identity and inversion laws and is associative, and |S|
    is a power of p.  Each law is checked a row of S at a time."""
    s_ids, rows, e = L.s_ids, L.rows, L.identity
    sset = set(s_ids)
    if e not in sset:
        return "identity not in S"
    for a in s_ids:
        if not sset.issuperset(map(rows[a].__getitem__, s_ids)):
            b = next(b for b in s_ids if rows[a][b] not in sset)
            return f"S not product-closed at ({a},{b})"
    for a in s_ids:
        if rows[e][a] != a or rows[a][e] != a:
            return f"identity law fails in S at {a}"
        if L.inv[a] not in sset or rows[a][L.inv[a]] != e:
            return f"inversion fails in S at {a}"
    for a, b in itertools.product(s_ids, repeat=2):
        left = rows[rows[a][b]]  # (ab)c, against a(bc), for every c
        right = list(map(rows[a].__getitem__, map(rows[b].__getitem__, s_ids)))
        if list(map(left.__getitem__, s_ids)) != right:
            c = next(c for c, r in zip(s_ids, right) if left[c] != r)
            return f"product on S not associative at ({a},{b},{c})"
    if _p_part(len(s_ids), L.p) != len(s_ids):
        return f"S of order {len(s_ids)} is not a {L.p}-group"
    return None


def _check_s_maximal(L: Locality) -> CheckResult:
    sset = set(L.s_ids)
    full = L._full
    for f in range(L.n):
        if f in sset:
            continue
        # f can only enlarge S to a p-subgroup from inside N_L(S)
        pf = L._pm[f]
        if L._sf[f] != full or image_mask(pf, range(len(L.s_ids))) != full:
            continue
        ext = set(sset)
        frontier = [f]
        is_p = True
        while frontier and is_p:
            x = frontier.pop()
            if x in ext:
                continue
            ext.add(x)
            for y in list(ext):
                for a, b in ((x, y), (y, x)):
                    z = L.rows[a][b]
                    if z < 0:
                        is_p = False
                        break
                    if z not in ext:
                        frontier.append(z)
                if not is_p:
                    break
        if is_p and _p_part(len(ext), L.p) == len(ext):
            return CheckResult("s_maximal_p_subgroup", False,
                               f"element {f} extends S to a p-subgroup")
    return CheckResult("s_maximal_p_subgroup", True)


# -- restriction and normalizer localities ----------------------------------

def _sub_locality(L: Locality, carrier_ids: list[int],
                  delta: Iterable[int]) -> Locality:
    """The sub-locality on ``carrier_ids`` with object set ``delta``
    (masks of L), keeping the pairs (i, j) of L with i, j and i·j in the
    carrier and S_(i,j) in ``delta``.  Ids are renumbered in order, so S
    keeps its positions, and with them the masks and the S-lattice of
    L, and its bounds: the sub-locality takes L's S (``s_group``), so
    the two share one index of S."""
    carrier_ids = sorted(carrier_ids)
    new_id = [-1] * (L.n + 1)  # -1 off the carrier and for -1 itself
    for new, old in enumerate(carrier_ids):
        new_id[old] = new
    labels = [L.labels[i] for i in carrier_ids]
    delta = set(delta)
    sf = [L._sf[j] for j in carrier_ids]
    # S_(i,j) = pre_i(S_j), decided once per (class of i, distinct S_j)
    keeps: dict[int, list[bool]] = {}  # class of i -> keep column j?
    rows = []
    for i in carrier_ids:
        c = L._cls[i]
        if c not in keeps:
            keeps[c] = list(map({d: L.preimage(i, d) in delta
                                 for d in set(sf)}.__getitem__, sf))
        rows.append([k if ok else -1 for k, ok in zip(
            map(new_id.__getitem__, map(L.rows[i].__getitem__, carrier_ids)),
            keeps[c])])
    new_delta = [[new_id[x] for x in L.ids_of(d)] for d in delta]
    sub = Locality(labels, new_id[L.identity],
                   [new_id[L.inv[i]] for i in carrier_ids],
                   rows, [new_id[s] for s in L.s_ids], L.p, new_delta,
                   realization=L.realization,
                   max_word_length=L.max_word_length,
                   morphism_cap=L.morphism_cap)
    sub._s = L.s_group()
    return sub


def restriction(Lplus: Locality, delta: Iterable[frozenset[int]]) -> Locality:
    """Restriction of L^+ to a smaller object set (carrier ids of L^+)."""
    dmasks = {Lplus.mask_of(d) for d in delta}
    if not dmasks <= Lplus.delta:
        bad = next(d for d in dmasks if d not in Lplus.delta)
        raise LocalityError(
            f"delta member of size {bad.bit_count()} not in the object set")
    # overgroup closure and F_S(L+)-conjugacy closure
    bad = _check_delta_closures(Lplus.lattice, dmasks,
                                zip(Lplus._cmaps, Lplus._csf))
    if bad is not None:
        raise LocalityError(f"restriction {bad}")
    carrier = [f for f in range(Lplus.n) if Lplus._sf[f] in dmasks]
    return _sub_locality(Lplus, carrier, dmasks)


def strongly_closed_in_carrier(L: Locality, t_ids: Iterable[int]) -> bool:
    """T strongly closed in F_S(L): no conjugation map moves T out of T.

    Checking the generating conjugation maps suffices, since composites
    and restrictions of T-preserving maps preserve T.
    """
    tset = set(t_ids)
    if not tset <= set(L.s_ids):
        return False
    for pf in L._cmaps:  # one map per class
        for t in tset:
            v = pf[L._s_pos[t]]
            if v >= 0 and L.s_ids[v] not in tset:
                return False
    return True


def normalizer_carrier(L: Locality, t_ids: Iterable[int]) -> list[int]:
    """N_L(T) = {f : T <= S_f and T^f = T}, decided once per class."""
    tpos = [L._s_pos[t] for t in sorted(t_ids)]
    timgs = frozenset(L._s_pos[t] for t in t_ids)
    ok = [all(pf[i] >= 0 for i in tpos)
          and frozenset(pf[i] for i in tpos) == timgs for pf in L._cmaps]
    return list(itertools.compress(range(L.n), map(ok.__getitem__, L._cls)))


# -- linking localities ------------------------------------------------------

def local_p_core(L: Locality, P: Iterable[int]
                 ) -> Optional[tuple[list[int], frozenset[int]]]:
    """N_L(P) and a normal p-subgroup of it as ids, read off the product
    rows, or None when N_L(P) is not closed under the product.

    The subgroup is the intersection of the conjugates of X = S ∩ N_L(P),
    {x in X : g^-1·x·g in X for every g in N_L(P)}: N_L(P) permutes
    them, so it lies in O_p(N_L(P)).  It is O_p(N_L(P)) when X is Sylow
    in N_L(P), since O_p lies in every Sylow subgroup; and X = N_S(P) is
    Sylow when P is fully normalized in F_S(L) (Chermak, "Fusion systems
    and localities", Acta Math. 2013, §2).  For L_Δ(G), where N_L(P) =
    N_G(P), that is the Sylow argument of Aschbacher–Kessar–Oliver §I.1:
    a Sylow T >= N_S(P) of N_G(P) has T^g <= S for some g, and then
    |N_S(P^g)| >= |T|.
    """
    ids = normalizer_carrier(L, P)
    idset, rows, inv = set(ids), L.rows, L.inv
    for a in ids:
        if not idset.issuperset(map(rows[a].__getitem__, ids)):
            return None
    X = idset.intersection(L.s_ids)
    core = X
    for g in ids:
        by_g = rows[inv[g]]
        core = {x for x in core if rows[by_g[x]][g] in X}
    return ids, frozenset(core)


def is_linking_locality(L: Locality) -> tuple[bool, dict]:
    """Saturated fusion, F^cr inside delta, all N_L(P) of characteristic p.

    N_L(P) is tested once per F_S(L)-class of delta, at the class's fully
    normalized member, where ``local_p_core`` gives O_p(N_L(P)).  For P
    in delta and f in L with P <= S_f, conjugation by f maps N_L(P) onto
    N_L(P^f) (Chermak, "Fusion systems and localities", Acta Math. 2013),
    and the maps of F_S(L) are composites of restrictions of such
    conjugations: so the objects of one class have isomorphic
    normalizers.  The classes are visited in the order of their first
    objects, and each witness names only the object's order and
    |N_L(P)|, which are the same across a class.  Where that member is
    not in delta (delta not closed under F_S(L)-conjugacy), and for an
    object that is no subgroup of S, the first object is tested.

    The test runs on the product rows, with no permutation group built:
    N_L(P) must be closed under the product, and with the normal
    p-subgroup R from ``local_p_core``, N_L(P) has characteristic p when
    every element of N_L(P) that commutes with all of R lies in R.  That
    is sound for any R <= O_p, as C(O_p) <= C(R) <= R <= O_p, and exact
    at a fully normalized member, where R = O_p."""
    report: dict = {"saturated": None, "centric_radicals_in_delta": None,
                    "local_groups_characteristic_p": None, "witness": None}
    F = fusion_of_locality(L)
    report["saturated"] = is_saturated(F)

    ok_cr = True
    for P in centric_radicals(F):
        if F.mask_of(P) not in L.delta:
            ok_cr = False
            report["witness"] = f"centric radical of order {P.order} not in delta"
            break
    report["centric_radicals_in_delta"] = ok_cr

    idx = F.index
    # (first object, object tested) per class of delta
    tests = [(d, d) for d in L.delta.difference(idx.lattice())]
    for cls in F.classes():
        objects = [m for m in cls if m in L.delta]
        if objects:
            full = fully_normalized_conjugate(F, cls[0])
            tests.append((objects[0], full if full in L.delta
                          else objects[0]))
    ok_loc = True
    rows = L.rows
    for _, d in sorted(tests, key=lambda t: (t[0].bit_count(),
                                             bit_positions(t[0]))):
        res = local_p_core(L, L.ids_of(d))
        if res is None:
            ok_loc = False
            report["witness"] = (f"N_L(P) not a group for object of order "
                                 f"{d.bit_count()}")
            break
        nl, core = res
        if not core.issuperset(g for g in nl if all(
                rows[g][x] == rows[x][g] for x in core)):
            ok_loc = False
            report["witness"] = (f"N_L(P) of order {len(nl)} is not of "
                                 f"characteristic {L.p}")
            break
    report["local_groups_characteristic_p"] = ok_loc
    verdict = bool(report["saturated"]) and ok_cr and ok_loc
    return verdict, report


# -- abstract descriptor interchange ----------------------------------------

def locality_from_descriptor(d: dict) -> Locality:
    """Abstract carrier descriptor; must pass validate_locality afterwards.

    Each product triple [i, j, k] sets i·j = k (a later triple for the
    same pair wins); a triple holding an id outside range(n) raises
    LocalityError, since -1 would read as undefined and a negative id
    would index another row."""
    n = d["carrier"]
    ids = range(n)
    rows = [[-1] * n for _ in ids]
    for t in d["products"]:
        i, j, k = t
        if i not in ids or j not in ids or k not in ids:
            raise LocalityError(
                f"product entry {list(t)} holds an id outside range({n})")
        rows[i][j] = k
    return Locality(labels=tuple(ids), identity=d["identity"],
                    inv=tuple(d["inverse"]), rows=rows, s_ids=d["S"],
                    p=d["p"], delta=[frozenset(x) for x in d["delta"]],
                    max_word_length=d.get("max_word_length",
                                          DEFAULT_MAX_WORD_LENGTH))


def locality_to_descriptor(L: Locality) -> dict:
    cols = range(L.n)
    return {"carrier": L.n, "identity": L.identity, "inverse": list(L.inv),
            "products": [[i, j, row[j]] for i, row in zip(cols, L.rows)
                         for j in itertools.compress(cols, map(_defined, row))],
            "S": list(L.s_ids), "p": L.p,
            "delta": sorted(sorted(L.ids_of(d)) for d in L.delta),
            "max_word_length": L.max_word_length}
