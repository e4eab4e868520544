"""Property test: fusion systems of random small permutation groups
against the element-graph oracle.

Each example is a group of degree at most 6 on one to three random
generators, taken at every prime dividing its order.  Its Sylow
subgroup at each prime up to 7 must be the one the normalizer-growth
search (``answer_oracles.ref_sylow_subgroup``) finds.  Through the graph
edge (``graph_oracle.graph_of`` and ``graph_oracle.from_graph``), F_S(G)
must equal the conjugation graphs, closing its outer maps onto the inner
maps must give F_S(G) back, and its report must be byte for byte the
report written from the graphs.  For every subgroup Q of S, N_F(Q) must equal
the build from every Q-preserving map (``answer_oracles``).  The normal
subsystems of F_S(G) must be those of the search by every missing map,
in its order (``answer_oracles``).  The tables
of L_delta(G), for delta the subgroups of S of order at least |S|/p,
must equal the pair-wise build (``answer_oracles``).
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from locfusion.fusion import (close, fusion_of_group, inner_maps,  # noqa: E402
                              is_saturated, maps_inside, normal_subsystems,
                              normalizer_system)
from locfusion.locality import (delta_min_order,  # noqa: E402
                                locality_from_group)
from locfusion.permgroup import (FiniteGroup, compose,  # noqa: E402
                                 sylow_subgroup)

from answer_oracles import (locality_tables,  # noqa: E402
                            locality_tables_by_pairs, normalizer_by_sources,
                            normal_subsystems_by_every_map,
                            ref_sylow_subgroup, saturated_by_any_member)
from graph_oracle import (graphs, ref_fusion_maps,  # noqa: E402
                          ref_to_json)


@st.composite
def groups(draw):
    degree = draw(st.integers(1, 6))
    gens = draw(st.lists(st.permutations(range(degree)),
                         min_size=1, max_size=3))
    return FiniteGroup(degree, gens)


def _primes(n):
    return [p for p in range(2, n + 1)
            if n % p == 0 and all(p % d for d in range(2, p))]


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(groups())
def test_sylow_subgroup_against_normalizer_growth(G):
    """At every prime, including those not dividing |G|: the search that
    stops at |G|_p adjoins what the normalizer-growth oracle adjoins."""
    for p in [2, 3, 5, 7]:
        assert sylow_subgroup(G, p).elements == \
            ref_sylow_subgroup(G, p).elements


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(groups())
def test_fusion_of_group_against_graph_oracle(G):
    for p in _primes(G.order):
        S = sylow_subgroup(G, p)
        F = fusion_of_group(G, S, p=p)
        ref = ref_fusion_maps(G, S, G.elements)
        assert graphs(F) == ref
        assert close(S, p, sorted(F.maps - inner_maps(S))) == F
        assert json.dumps(F.to_json(), sort_keys=True) == \
            json.dumps(ref_to_json(S, p, ref), sort_keys=True)
        for Q, q in zip(F.subgroups, F.lattice):
            assert normalizer_system(F, q) == normalizer_by_sources(F, Q)


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(groups())
def test_normal_subsystems_against_every_map_search(G):
    for p in _primes(G.order):
        F = fusion_of_group(G, sylow_subgroup(G, p), p=p)
        assert normal_subsystems(F) == normal_subsystems_by_every_map(F)


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(groups(), st.data())
def test_saturation_at_fully_normalized_members_against_any_member(G, data):
    """On F = F_S(G), at every prime, and on E = close(T, p, up to three
    maps of F inside a subgroup T of S), which is often not saturated."""
    for p in _primes(G.order):
        S = sylow_subgroup(G, p)
        F = fusion_of_group(G, S, p=p)
        t = data.draw(st.sampled_from(F.lattice))
        inside = sorted(maps_inside(F.maps, t))
        gens = data.draw(st.lists(st.sampled_from(inside), max_size=3))
        for X in (F, close(S, p, gens, t=t)):
            assert is_saturated(X) == saturated_by_any_member(X)


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(groups())
def test_locality_rows_against_pair_oracle(G):
    for p in _primes(G.order):
        S = sylow_subgroup(G, p)
        delta = delta_min_order(S, S.order // p)
        L = locality_from_group(G, S, delta, p)
        assert locality_tables(L) == locality_tables_by_pairs(G, S, delta)
        # closed under left multiplication by S, as ``_coset_rows`` reads
        # every row off the first row of its coset
        assert all(compose(s, g) in L.id_of
                   for s in S.elements for g in L.labels)
