"""Localities: objective partial groups with a distinguished p-subgroup.

A locality is stored as a finite carrier with integer ids, an involutive
inversion, a binary partial product, a p-subgroup S and an object set
delta of subgroups of S.  A word lies in the domain of the partial
product exactly when the subgroup S_w it carries through S belongs to
delta; the n-ary product is the left fold of the binary one.

Inside a locality, S is indexed as positions ``0..|S|-1`` in the order of
``s_ids`` (for a group-realized locality this is the order of
``SIndex(S)``), and every subset of S is an ``int`` bitmask over those
positions: delta is a set of masks, S_w is a mask, and the S-lattice is
a list of masks computed once per locality.  Each carrier element f
induces the partial injective map s -> s^f on positions wherever the
conjugate stays in S; S_w is the domain of the composite map along w.
Domain questions are answered without building that composite: the
preimage of a mask under one letter's map is cached per (letter, mask),
and S_w is the preimage of S walked through w from the right.
Words with the same (left-fold value, composite map) pair behave
identically under every check performed here, which is what makes
exhaustive validation up to a word-length bound tractable.  One
explorer (``_word_states``) walks those states and one check
(``_check_delta_closures``) decides whether a family of masks is an
object set.

The explorer groups the letters by their domain S_f.  A state extends
by a whole group at once when the preimage of S_f, walked back along
the state's representative word, is in delta; this is the same set
identity as S_w, so it holds for any tables.  Each state composes its
map once into a getter (``operator.itemgetter`` over the map), and each
transition is then one call of that getter on the letter's map.  The
split check of the validator admits right states by the same walk,
grouped by (length, domain).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Collection, Iterable, Optional, Sequence

from .fusion import DEFAULT_MORPHISM_CAP
from .permgroup import (FiniteGroup, Subgroup, all_subgroups, bit_positions,
                        cayley_group, compose, image_mask, inverse,
                        is_p_group, _p_part)

Word = tuple[int, ...]

_defined = (0).__le__  # v -> v >= 0, for a position or -1


class LocalityError(ValueError):
    """Invalid locality construction or precondition."""


class DomainError(LocalityError):
    """A word was multiplied outside the domain of the partial product."""

    def __init__(self, word: Word, s_w: frozenset):
        self.word = word
        self.s_w = s_w
        super().__init__(f"word {word!r} is not in the domain (|S_w|={len(s_w)})")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: Optional[str] = None


@dataclass
class ValidationReport:
    checks: list[CheckResult] = field(default_factory=list)
    bounded_only: bool = True
    max_word_length: int = 4

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


class Locality:
    """(L, delta, S) with partial product given by a binary table.

    ``labels`` are stable hashable names for the carrier elements
    (ambient permutations for group-realized instances); set-valued
    results are exchanged as label sets so that sub-localities remain
    comparable with their parents.  ``delta`` is given as sets of ids of
    S and stored as masks over the positions of S.

    The tables (carrier, inversion, product, S and delta) are not
    mutated after construction: the partial maps ``_pm`` built from
    them, the preimage cache behind ``s_mask`` and the ``_verdicts`` memo
    of the partial-subgroup predicates and of the locality-route
    precondition of ``products`` all rely on that.
    """

    def __init__(self, labels: Sequence, identity: int, inv: Sequence[int],
                 prod: dict[tuple[int, int], int], s_ids: Iterable[int],
                 p: int, delta: Iterable[Iterable[int]],
                 realization: Optional[FiniteGroup] = None):
        self.labels = tuple(labels)
        self.n = len(self.labels)
        self.identity = identity
        self.inv = tuple(inv)
        self.prod = dict(prod)
        self.s_ids = tuple(sorted(s_ids))
        self.p = p
        self._s_pos = {s: i for i, s in enumerate(self.s_ids)}
        self.delta = frozenset(self.mask_of(P) for P in delta)
        self.realization = realization
        self.id_of = {lab: i for i, lab in enumerate(self.labels)}
        self._bits = tuple(1 << i for i in range(len(self.s_ids)))
        self._pm = self._build_partial_maps()
        self._sf = tuple(self._dom(m) for m in self._pm)
        self._full = (1 << len(self.s_ids)) - 1
        self._pre: dict[tuple[int, int], int] = {}  # (f, mask) -> preimage
        self._lattice: Optional[list[int]] = None
        self._fusion = None  # cached F_S(L)
        self._verdicts: dict = {}  # memo of set-level verdicts on L

    # -- construction helpers ----------------------------------------------

    def _build_partial_maps(self) -> tuple[tuple[int, ...], ...]:
        """pm[f][i] = position of s_i^f in S, or -1 when undefined.

        s^f is evaluated as the left fold of (f^-1, s, f) through the
        binary table; in a valid locality this agrees with the n-ary
        product on that word.  Every map on positions here, rows and
        composites alike, carries one extra entry -1 at the end, so that
        ``pf[-1] == -1`` and composing by indexing keeps undefined
        points undefined.
        """
        maps = []
        for f in range(self.n):
            fi = self.inv[f]
            row = []
            for s in self.s_ids:
                t = self.prod.get((fi, s))
                u = self.prod.get((t, f)) if t is not None else None
                row.append(self._s_pos.get(u, -1) if u is not None else -1)
            row.append(-1)
            maps.append(tuple(row))
        return tuple(maps)

    def _dom(self, m: tuple[int, ...]) -> int:
        """Mask of the positions where the map m is defined."""
        return sum(itertools.compress(self._bits, map(_defined, m)))

    @property
    def lattice(self) -> list[int]:
        """Masks of every subgroup of S, ordered by (order, members);
        computed on first use and kept."""
        if self._lattice is None:
            G, to = self.group_on(self.s_ids)
            six = G.sindex(Subgroup(G, to.values(), check=False))
            bit = {six.pos[to[s]]: b for s, b in zip(self.s_ids, self._bits)}
            self._lattice = sorted(
                (sum(bit[j] for j in bit_positions(m)) for m in six.lattice()),
                key=lambda m: (m.bit_count(), bit_positions(m)))
        return self._lattice

    # -- basic queries -------------------------------------------------------

    def label_set(self, ids: Iterable[int]) -> frozenset:
        return frozenset(self.labels[i] for i in ids)

    def ids_of_labels(self, labs: Iterable) -> tuple[int, ...]:
        return tuple(sorted(self.id_of[l] for l in labs))

    def s_label_set(self) -> frozenset:
        return self.label_set(self.s_ids)

    def mask_of(self, ids: Iterable[int]) -> int:
        """Mask of a set of ids of S (LocalityError for an id outside S)."""
        return _mask(self._s_pos, ids)

    def ids_of(self, mask: int) -> frozenset[int]:
        """The ids of S in a mask."""
        return frozenset(self.s_ids[i] for i in bit_positions(mask))

    def preimage(self, f: int, mask: int) -> int:
        """Mask of the positions i with s_i^f defined and in ``mask``;
        cached per (f, mask)."""
        key = (f, mask)
        pre = self._pre.get(key)
        if pre is None:
            pre = sum(b for b, v in zip(self._bits, self._pm[f])
                      if v >= 0 and mask >> v & 1)
            self._pre[key] = pre
        return pre

    def preimage_along(self, w: Word, mask: int) -> int:
        """pre_{w1}(pre_{w2}(... pre_{wk}(mask))): the positions whose
        image along w is defined and in ``mask``, for any tables, valid
        or not.  For a word w followed by a letter or word with domain
        d, the domain of the whole is ``preimage_along(w, d)``."""
        for f in reversed(w):
            mask = self.preimage(f, mask)
        return mask

    def s_mask(self, w: Word) -> int:
        """S_w as a mask; S itself for the empty word.  It is the domain
        of the composite map along w."""
        return self.preimage_along(w, self._full)

    def s_of_word(self, w: Word) -> frozenset[int]:
        """S_w as a set of carrier ids; S itself for the empty word."""
        return self.ids_of(self.s_mask(w))

    def in_domain(self, w: Word) -> bool:
        return self.s_mask(w) in self.delta

    def fold(self, w: Word) -> Optional[int]:
        """Left fold of the binary product; None when a step is undefined."""
        x = self.identity
        for f in w:
            x = self.prod.get((x, f))
            if x is None:
                return None
        return x

    def product(self, w: Word) -> int:
        sw = self.s_mask(w)
        x = self.fold(w) if sw in self.delta else None
        if x is None:
            raise DomainError(w, self.ids_of(sw))
        return x

    # -- local subgroups as genuine groups ----------------------------------

    def group_on(self, ids: Iterable[int]) -> tuple[FiniteGroup, dict]:
        """Realize a product-total subset as a permutation group.

        Uses the ambient realization when present, the regular action
        otherwise.  Returns (group, id -> permutation map).
        """
        ids = sorted(ids)
        if self.realization is not None:
            return (self.realization,
                    {i: self.labels[i] for i in ids})
        elems = list(ids)

        def mul(a, b):
            c = self.prod.get((a, b))
            if c is None:
                raise LocalityError("subset is not product-total")
            return c
        G, to_perm = cayley_group(elems, mul)
        return G, {i: to_perm[i] for i in ids}


# -- construction of group-realized localities -------------------------------

def delta_min_order(G: FiniteGroup, S: Subgroup, min_order: int) -> list[Subgroup]:
    return [P for P in all_subgroups(G, within=S) if P.order >= min_order]


def locality_from_group(G: FiniteGroup, S: Subgroup, delta: Iterable[Subgroup],
                        p: int) -> Locality:
    """The standard realization L_delta(G) = {g : S cap S^(g^-1) in delta}.

    delta must be overgroup-closed in S and closed under the conjugation
    maps of G between subgroups of S (LocalityError otherwise).  The
    result is not validated here; ``validate_locality`` checks it.
    """
    delta = list(delta)
    six = S.parent.sindex(S)
    dmasks = {_mask(six.pos, P.elements) for P in delta}

    # the carrier: g with S_g = S cap S^(g^-1) in delta.  Its maps are
    # all the Delta-closure check needs: a member inside S_g for g
    # outside the carrier would miss the overgroup S_g, which the check
    # reports first.
    # (actions come coset by coset; sorting restores the order of G)
    carrier = sorted(a for a in six.actions(G.elements) if a[2] in dmasks)
    labels = [g for g, _, _ in carrier]
    actions = [(images, dom) for _, images, dom in carrier]
    lattice = six.lattice()
    bad = _check_delta_closures(lattice, dmasks, actions)
    if bad is not None:
        raise LocalityError(bad)
    if not is_p_group(S, p):
        raise LocalityError("S must be a p-group")

    labels = tuple(labels)
    idx = {g: i for i, g in enumerate(labels)}
    s_ids = tuple(idx[s] for s in S.elements)
    identity = idx[G.identity]
    inv = tuple(idx[inverse(g)] for g in labels)

    # (f,g) is composable iff S_(f,g) = {s in S_f : s^f in S_g} is in
    # delta; S_g takes few values, so this is decided once per (f, S_g)
    # and the row visits only the g of the composable buckets, in order
    by_dom: dict[int, list[int]] = {}
    for j, (_, dom) in enumerate(actions):
        by_dom.setdefault(dom, []).append(j)
    prod: dict[tuple[int, int], int] = {}
    for i, (f, (images, dom_f)) in enumerate(zip(labels, actions)):
        fpos = bit_positions(dom_f)
        row = []
        for dom_g, js in by_dom.items():
            sw = 0
            for k in fpos:
                if dom_g >> images[k] & 1:
                    sw |= 1 << k
            if sw in dmasks:
                row += js
        row.sort()
        prod.update(((i, j), idx[compose(f, labels[j])]) for j in row)

    delta_ids = [frozenset(idx[s] for s in P.elements) for P in delta]
    L = Locality(labels, identity, inv, prod, s_ids, p, delta_ids,
                 realization=G)
    L._lattice = lattice  # s_ids follow the positions of six
    return L


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
    minimal length and a representative word, and ``failures`` lists the
    domain words whose left fold is undefined or leaves the letters.
    A state's word w extends by f exactly when the preimage of S_f along
    w is in delta, decided once per distinct S_f.
    """
    letters = range(L.n) if letters is None else sorted(letters)
    inside = set(letters)
    pm, sf, prod, delta = L._pm, L._sf, L.prod, L.delta
    by_dom: dict[int, list[int]] = {}
    for f in letters:
        by_dom.setdefault(sf[f], []).append(f)
    states = {}
    failures = []
    frontier = {}
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
            groups = [fs for d, fs in by_dom.items()
                      if L.preimage_along(word, d) in delta]
            if len(groups) < len(by_dom):  # back into letter order
                nexts = sorted(itertools.chain.from_iterable(groups))
            else:
                nexts = letters
            after = itemgetter(*m)  # m has |S| + 1 >= 2 entries
            for f in nexts:
                pi2 = prod.get((pi, f))
                if pi2 is None or pi2 not in inside:
                    failures.append(word + (f,))
                    continue
                st = (pi2, after(pm[f]))
                if st not in states:
                    states[st] = (length, word + (f,))
                    new[st] = word + (f,)
        frontier = new
    return states, failures


def validate_locality(L: Locality, max_word_length: int = 4) -> ValidationReport:
    """Check the locality axioms on all words up to the length bound.

    Words are explored through (product, map) states, which is
    equivalent to exhaustive enumeration: every check applied to a word
    depends only on its state, and every state is visited.
    """
    rep = ValidationReport(max_word_length=max_word_length)
    add = rep.checks.append

    # S is a group under a total product: the S-lattice is built from it
    s_wit = _s_group_fault(L)
    add(CheckResult("s_subgroup", s_wit is None, s_wit))

    # identity and inversion laws
    ok, wit = True, None
    for f in range(L.n):
        if L.inv[L.inv[f]] != f:
            ok, wit = False, f"inversion not involutive at {f}"
            break
        if L.prod.get((L.identity, f)) != f or L.prod.get((f, L.identity)) != f:
            ok, wit = False, f"identity law fails at {f}"
            break
        if L.prod.get((f, L.inv[f])) != L.identity \
                or L.prod.get((L.inv[f], f)) != L.identity:
            ok, wit = False, f"inversion law fails at {f}"
            break
    add(CheckResult("identity_and_inversion", ok, wit))

    # S_f in delta for every f
    bad = next((f for f in range(L.n) if L._sf[f] not in L.delta), None)
    add(CheckResult("s_f_in_delta", bad is None,
                    None if bad is None else f"element {bad}"))

    # objectivity at length 2: (f,g) defined iff S_(f,g) = pre_f(S_g)
    # in delta, compared a row at a time
    ok, wit = True, None
    doms = set(L._sf)
    for f in range(L.n):
        in_delta = {d: L.preimage(f, d) in L.delta for d in doms}
        objs = list(map(in_delta.__getitem__, L._sf))
        defined = list(map(L.prod.__contains__,
                           zip(itertools.repeat(f), range(L.n))))
        if objs != defined:
            g = next(g for g in range(L.n) if objs[g] != defined[g])
            ok, wit = False, (f"pair ({f},{g}): defined={defined[g]}, "
                              f"S_w in delta={objs[g]}")
            break
    add(CheckResult("objectivity_len2", ok, wit))

    # delta closure properties, on the S-lattice, which is only built
    # from an S-table that passed ``s_subgroup``
    if s_wit is None:
        bad = _check_delta_closures(L.lattice, L.delta, zip(L._pm, L._sf))
    else:
        bad = f"not checked: s_subgroup failed ({s_wit})"
    add(CheckResult("delta_closure", bad is None, bad))

    # domain words: folds defined, splitting/associativity, S_w transport
    states, fold_failures = _word_states(L, max_word_length)
    add(CheckResult("fold_defined_on_domain", not fold_failures,
                    f"word {fold_failures[0]!r}" if fold_failures else None))

    ok, wit = True, None
    for (pi, m), (_, word) in states.items():
        pm_pi = L._pm[pi]
        for i, v in enumerate(m):
            if v >= 0 and pm_pi[i] != v:
                ok, wit = False, f"word {word!r}: S_w image differs from S_w^(Pi w)"
                break
        if not ok:
            break
    add(CheckResult("s_w_through_product", ok, wit))

    # every split u|v of a domain word into two states: the right states
    # are grouped by (length, S_v), each group admitted at once by the
    # preimage of S_v along u, and visited in state order
    ok, wit = True, None
    items = list(states.items())
    groups: dict[tuple[int, int], list[int]] = {}
    for k, ((_, m), (length, _)) in enumerate(items):
        groups.setdefault((length, L._dom(m)), []).append(k)
    for (p1, _), (l1, w1) in items:
        right = sorted(itertools.chain.from_iterable(
            ks for (l2, d2), ks in groups.items()
            if l1 + l2 <= max_word_length
            and L.preimage_along(w1, d2) in L.delta))
        for (p2, _), (_, w2) in map(items.__getitem__, right):
            pi = L.prod.get((p1, p2))
            q = p1
            for f in w2:
                q = L.prod.get((q, f))
                if q is None:
                    break
            if pi is None or q is None or pi != q:
                ok, wit = False, f"split {w1!r}|{w2!r}: fold != Pi(u)Pi(v)"
                break
        if not ok:
            break
    add(CheckResult("associativity_by_splitting", ok, wit))

    # maximality of S among p-subgroups of the carrier
    add(_check_s_maximal(L))

    # realization oracle
    if L.realization is not None:
        ok, wit = True, None
        for (i, j), k in L.prod.items():
            if compose(L.labels[i], L.labels[j]) != L.labels[k]:
                ok, wit = False, f"pair ({i},{j}) disagrees with the ambient product"
                break
        add(CheckResult("realization_oracle", ok, wit))

    rep.bounded_only = L.realization is None
    return rep


def _s_group_fault(L: Locality) -> Optional[str]:
    """Why the product on S is not a group table, or None: S holds the
    identity, is closed under the product and inversion, and the product
    on it has the identity and inversion laws and is associative."""
    sset, prod, e = set(L.s_ids), L.prod, L.identity
    if e not in sset:
        return "identity not in S"
    for a, b in itertools.product(L.s_ids, repeat=2):
        if prod.get((a, b)) not in sset:
            return f"S not product-closed at ({a},{b})"
    for a in L.s_ids:
        if prod[(e, a)] != a or prod[(a, e)] != a:
            return f"identity law fails in S at {a}"
        if L.inv[a] not in sset or prod[(a, L.inv[a])] != e:
            return f"inversion fails in S at {a}"
    for a, b, c in itertools.product(L.s_ids, repeat=3):
        if prod[(prod[(a, b)], c)] != prod[(a, prod[(b, c)])]:
            return f"product on S not associative at ({a},{b},{c})"
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
                    z = L.prod.get((a, b))
                    if z is None:
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

def _sub_locality(L: Locality, carrier_ids: list[int], delta: Iterable[int],
                  restrict_prod_to_delta: bool) -> Locality:
    """The sub-locality on ``carrier_ids`` with object set ``delta``
    (masks of L).  Ids are renumbered in order, so S keeps its
    positions, and with them the masks and the S-lattice of L."""
    carrier_ids = sorted(carrier_ids)
    old_to_new = {old: new for new, old in enumerate(carrier_ids)}
    labels = [L.labels[i] for i in carrier_ids]
    delta = set(delta)
    cset = set(carrier_ids)
    prod = {}
    for (i, j), k in L.prod.items():
        if i in cset and j in cset and k in cset:
            if restrict_prod_to_delta and L.s_mask((i, j)) not in delta:
                continue
            prod[(old_to_new[i], old_to_new[j])] = old_to_new[k]
    new_delta = [[old_to_new[x] for x in L.ids_of(d)] for d in delta]
    sub = Locality(labels, old_to_new[L.identity],
                   [old_to_new[L.inv[i]] for i in carrier_ids],
                   prod, [old_to_new[s] for s in L.s_ids], L.p, new_delta,
                   realization=L.realization)
    sub._lattice = L._lattice
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
                                zip(Lplus._pm, Lplus._sf))
    if bad is not None:
        raise LocalityError(f"restriction {bad}")
    carrier = [f for f in range(Lplus.n) if Lplus._sf[f] in dmasks]
    return _sub_locality(Lplus, carrier, dmasks, restrict_prod_to_delta=True)


def strongly_closed_in_carrier(L: Locality, t_ids: Iterable[int]) -> bool:
    """T strongly closed in F_S(L): no conjugation map moves T out of T.

    Checking the generating conjugation maps suffices, since composites
    and restrictions of T-preserving maps preserve T.
    """
    tset = set(t_ids)
    if not tset <= set(L.s_ids):
        return False
    for f in range(L.n):
        pf = L._pm[f]
        for t in tset:
            v = pf[L._s_pos[t]]
            if v >= 0 and L.s_ids[v] not in tset:
                return False
    return True


def normalizer_carrier(L: Locality, t_ids: Iterable[int]) -> list[int]:
    """N_L(T) = {f : T <= S_f and T^f = T}."""
    tpos = [L._s_pos[t] for t in sorted(t_ids)]
    timgs = frozenset(L._s_pos[t] for t in t_ids)
    out = []
    for f in range(L.n):
        pf = L._pm[f]
        if all(pf[i] >= 0 for i in tpos) \
                and frozenset(pf[i] for i in tpos) == timgs:
            out.append(f)
    return out


def normalizer_locality(L: Locality, t_ids: Iterable[int]) -> Locality:
    """(N_L(T), delta, S) for T <= S strongly closed in F_S(L)."""
    t_ids = sorted(t_ids)
    if not strongly_closed_in_carrier(L, t_ids):
        raise LocalityError("T is not strongly closed in F_S(L)")
    carrier = normalizer_carrier(L, t_ids)
    return _sub_locality(L, carrier, L.delta, restrict_prod_to_delta=False)


# -- linking localities ------------------------------------------------------

def local_group(L: Locality, P: frozenset[int]) -> Optional[tuple[FiniteGroup, dict]]:
    """N_L(P) as a finite group, or None when its product is not total."""
    ids = normalizer_carrier(L, P)
    idset = set(ids)
    for a in ids:
        for b in ids:
            c = L.prod.get((a, b))
            if c is None or c not in idset:
                return None
    if L.realization is not None:
        H = FiniteGroup(L.realization.degree, [L.labels[i] for i in ids],
                        max_size=max(len(ids), 1))
        return H, {i: L.labels[i] for i in ids}
    elems = sorted(ids)
    return cayley_group(elems, lambda a, b: L.prod[(a, b)])


def is_linking_locality(L: Locality, cap: int = DEFAULT_MORPHISM_CAP
                        ) -> tuple[bool, dict]:
    """Saturated fusion, F^cr inside delta, all N_L(P) of characteristic p.

    ``cap`` is the morphism cap of F_S(L)."""
    from .fusion import (fusion_of_locality, is_saturated, centric_radicals)
    from .permgroup import is_characteristic_p

    report: dict = {"saturated": None, "centric_radicals_in_delta": None,
                    "local_groups_characteristic_p": None, "witness": None}
    F = fusion_of_locality(L, cap)
    report["saturated"] = is_saturated(F)

    dsets = {L.label_set(L.ids_of(d)) for d in L.delta}
    ok_cr = True
    for P in centric_radicals(F):
        if P.eset not in dsets:
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
    verdict = bool(report["saturated"]) and ok_cr and ok_loc
    return verdict, report


# -- abstract descriptor interchange ----------------------------------------

def locality_from_descriptor(d: dict) -> Locality:
    """Abstract carrier descriptor; must pass validate_locality afterwards."""
    n = d["carrier"]
    prod = {(i, j): k for i, j, k in d["products"]}
    L = Locality(labels=tuple(range(n)), identity=d["identity"],
                 inv=tuple(d["inverse"]), prod=prod, s_ids=d["S"],
                 p=d["p"], delta=[frozenset(x) for x in d["delta"]])
    return L


def locality_to_descriptor(L: Locality) -> dict:
    return {"carrier": L.n, "identity": L.identity, "inverse": list(L.inv),
            "products": sorted([i, j, k] for (i, j), k in L.prod.items()),
            "S": list(L.s_ids), "p": L.p,
            "delta": sorted(sorted(L.ids_of(d)) for d in L.delta)}
