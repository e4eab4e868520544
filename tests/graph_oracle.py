"""Element graphs, kept as the oracle for the position form of morphisms.

A ``Graph`` is the full element map of an injective homomorphism between
subgroups of S, with composition, restriction and inversion done element
by element.  ``ref_all_subgroups`` is the element-wise S-lattice and
``ref_fusion_maps`` the conjugation graphs of F_S(G) on it.
``ref_close`` closes a set of graphs by composing every pair it finds,
and ``ref_to_json`` writes a set of graphs in the layout of
``FusionSystem.to_json``.  ``graph_of`` reads a morphism of the library
back as its graph; ``from_graph`` is the other way, through
``fusion.checked_morphism``.
"""

from locfusion.fusion import FusionError, checked_morphism, subgroup_lattice
from locfusion.permgroup import Subgroup, _closure, compose, inverse


class Graph:
    """Graph of an injective homomorphism between subgroups of S."""

    __slots__ = ("pairs", "d", "src", "img")

    def __init__(self, pairs):
        self.pairs = tuple(sorted(pairs))
        self.d = dict(self.pairs)
        self.src = frozenset(self.d)
        self.img = frozenset(self.d.values())

    def __eq__(self, other):
        return isinstance(other, Graph) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __lt__(self, other):
        return self.pairs < other.pairs

    def restrict(self, subset):
        return Graph((x, y) for x, y in self.pairs if x in subset)

    def then(self, other):
        """Apply self, then other; requires img(self) <= src(other)."""
        return Graph((x, other.d[y]) for x, y in self.pairs)

    def inv(self):
        return Graph((y, x) for x, y in self.pairs)

    def is_identity(self):
        return all(x == y for x, y in self.pairs)

    def image_of(self, xs):
        return frozenset(self.d[x] for x in xs)


def ref_conjugate(x, g):
    return compose(compose(inverse(g), x), g)


def conj_graph(dom, g):
    """Graph of x -> x^g on the given domain."""
    return Graph((x, ref_conjugate(x, g)) for x in dom)


def ref_all_subgroups(G, within=None):
    """Pairwise join-closure of the cyclic subgroups, on element sets."""
    ambient = within.elements if within is not None else G.elements
    seeds = {frozenset((G.identity,)): ()}
    for x in ambient:
        cyc, y = set(), x
        while y not in cyc:
            cyc.add(y)
            y = compose(y, x)
        seeds.setdefault(frozenset(cyc), (x,))
    subs = dict(seeds)
    worklist = list(seeds.items())
    while worklist:
        key_a, gens_a = worklist.pop()
        for key_b, gens_b in list(subs.items()):
            if key_a <= key_b or key_b <= key_a:
                continue
            gens = tuple(sorted(set(gens_a + gens_b)))
            join = frozenset(_closure(gens, G.degree, len(ambient)))
            if join not in subs:
                subs[join] = gens
                worklist.append((join, gens))
    return sorted((Subgroup(G, s, check=False) for s in subs),
                  key=lambda H: (H.order, H.elements))


def ref_fusion_maps(G, S, acting):
    maps = set()
    for P in ref_all_subgroups(G, within=S):
        for g in acting:
            img = {ref_conjugate(x, g) for x in P.eset}
            if img <= S.eset:
                maps.add(conj_graph(P.eset, g))
    return maps


def graph_of(S, m):
    """The graph of a morphism on the positions of S."""
    els = S.elements
    return Graph((els[i], els[j]) for i, j in enumerate(m[1]) if j >= 0)


def from_graph(S, graph):
    """The morphism of S with the element graph ``graph``: every point
    and image must lie in S, and the map pass ``checked_morphism``."""
    idx = S.parent.sindex(S)
    images = [-1] * len(idx.elements)
    try:
        for x, y in graph:
            images[idx.pos[x]] = idx.pos[y]
    except KeyError:
        raise FusionError("map does not live inside S") from None
    return checked_morphism(idx, images)


def graphs(F):
    """The graphs of F's maps, read on the positions of its run's S."""
    return {graph_of(F.index.S, m) for m in F.maps}


def ref_close(S, generators, base=None):
    """The least set of graphs holding ``base`` (the inner maps of S by
    default) and the generators that is closed under inversion,
    restriction to every subgroup and composition of every pair."""
    lattice = subgroup_lattice(S)
    if base is None:
        base = {conj_graph(P.eset, s) for P in lattice for s in S}
    below = {P.eset: [Q.eset for Q in lattice if Q.eset < P.eset]
             for P in lattice}
    maps = set(base)
    queue = []

    def push(m):
        if m not in maps:
            maps.add(m)
            queue.append(m)

    for g in generators:
        push(g)
    while queue:
        m = queue.pop()
        push(m.inv())
        for sub in below[m.src]:
            push(m.restrict(sub))
        for other in list(maps):
            if m.img <= other.src:
                push(m.then(other))
            if other.img <= m.src:
                push(other.then(m))
    return maps


def ref_to_json(S, p, gs):
    """A set of graphs over S in the layout of ``FusionSystem.to_json``:
    the subgroups by (order, elements), the graphs by their sorted pairs."""
    subs = sorted({m.src for m in gs} | {P.eset for P in subgroup_lattice(S)},
                  key=lambda s: (len(s), sorted(s)))
    sub_idx = {s: i for i, s in enumerate(subs)}
    return {
        "p": p,
        "subgroups": [sorted(map(list, s)) for s in subs],
        "morphisms": [
            {"src": sub_idx[m.src], "tgt": sub_idx[m.img],
             "map": [[list(x), list(y)] for x, y in m.pairs]}
            for m in sorted(gs)
        ],
    }
