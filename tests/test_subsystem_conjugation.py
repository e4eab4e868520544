"""Strong invariance against its every-map form, and the inner maps
kept on the index of S.

The strong-invariance test conjugates each map phi of E only by the
maps of F on the join of phi's source and image;
``strongly_invariant_by_all_maps`` conjugates phi by every map of F
whose source contains that join.  The cases are every closed subsystem
over every subgroup of S (``closed_subsystems_by_exhaust``) for the F
of product-24 and of product-48, and a derandomized sample of systems
generated by maps of F_S(G) inside a subgroup T of S, for S4, S3×S3 and
S6×C2 at p = 2.  On those closed subsystems, ``is_subnormal_subsystem``
is also checked against a recursion over them and against the chain
search by descending normal closures.  ``normal_subsystems``, which
grows Alperin's generators one F-orbit at a time, lists what the
every-map search (``normal_subsystems_by_every_map``) lists, in its
order, on the bundled F and on F_S(G) of named groups.
"""

import json

import pytest

from locfusion import fusion
from locfusion.cli import main
from locfusion.fusion import (_conjugation_maps, _is_strongly_invariant,
                              close, fusion_of_group, inner_maps,
                              is_normal_subsystem, is_strongly_closed,
                              is_subnormal_subsystem, maps_inside,
                              normal_subsystems)
from locfusion.instances import Instance, load_descriptor, product_setup
from locfusion.permgroup import FiniteGroup, sylow_subgroup

from answer_oracles import (closed_subsystems_by_exhaust,
                            normal_subsystems_by_every_map,
                            strongly_invariant_by_all_maps,
                            subnormal_chain_by_closures)
from cycles import from_cycles

try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:  # only the sampled test needs it
    hypothesis = None

BUNDLED = ("group-8", "group-60", "instance-a", "instance-b", "product-24",
           "product-48")


def check_against_oracles(F, E):
    """Equal strong-invariance verdicts; returns whether E's Sylow is
    strongly closed."""
    assert _is_strongly_invariant(F, E.maps) == \
        strongly_invariant_by_all_maps(F, E)
    return is_strongly_closed(F, E.t)


def subnormal_among(cands, A, found):
    """The members of ``cands`` subnormal in A, itself one of them: A, and
    those subnormal in some other member normal in A, each found once
    (``found``, by system)."""
    if A not in found:
        found[A] = {A}.union(*(subnormal_among(cands, N, found)
                               for N in cands
                               if N != A and is_normal_subsystem(A, N)))
    return found[A]


# the candidates the chain search by normal closures leaves "unknown"
UNDECIDED = {"product-24": 12, "product-48": 739}


@pytest.mark.parametrize("dname,pname,count", [("product-24", "i", 27),
                                               ("product-48", "iii", 1501)])
def test_enumeration_candidates_match_every_map_oracles(dname, pname, count):
    F = product_setup(load_descriptor(dname), pname)["F"]
    cands = closed_subsystems_by_exhaust(F)
    assert len(cands) == count
    closed = [check_against_oracles(F, X) for X in cands]
    assert any(closed) and not all(closed)  # Sylows of both kinds
    # subnormality: the exact rule against a recursion over the candidates
    # (F among them) and against the chain search by normal closures
    want = subnormal_among(cands, F, {})
    undecided = 0
    for X in cands:
        verdict, chain = is_subnormal_subsystem(F, X)
        assert verdict is (X in want)
        if verdict:
            assert chain[0] == X and chain[-1] is F
            assert all(is_normal_subsystem(above, below)
                       for below, above in zip(chain, chain[1:]))
        else:
            assert chain == ()
        old = subnormal_chain_by_closures(F, X)[0]
        assert old in (verdict, "unknown")
        undecided += old == "unknown"
    assert undecided == UNDECIDED[dname]


def _group(degree, *cycles):
    return FiniteGroup(degree, [from_cycles(degree, *c) for c in cycles])


def _systems():
    out = []
    for G in (_group(4, [(1, 2, 3, 4)], [(1, 2)]),
              _group(6, [(1, 2, 3)], [(1, 2)], [(4, 5, 6)], [(4, 5)]),
              _group(8, [(1, 2, 3, 4, 5, 6)], [(1, 2)], [(7, 8)])):
        out.append(fusion_of_group(G, sylow_subgroup(G, 2), p=2))
    return out


SYSTEMS = _systems()

NAMED_GROUPS = {
    "S6": ((6, [(1, 2, 3, 4, 5, 6)], [(1, 2)]), (2, 3)),
    "S6xC2": ((8, [(1, 2, 3, 4, 5, 6)], [(1, 2)], [(7, 8)]), (2,)),
    "S7": ((7, [(1, 2, 3, 4, 5, 6, 7)], [(1, 2)]), (2,)),
    "S3xS3": ((6, [(1, 2, 3)], [(1, 2)], [(4, 5, 6)], [(4, 5)]), (2, 3))}
NORMAL_IDS = ([f"{name}:F" for name in BUNDLED]
              + [f"{name}:p={p}" for name, (_, ps) in NAMED_GROUPS.items()
                 for p in ps])


@pytest.mark.parametrize("label", NORMAL_IDS)
def test_normal_subsystems_match_every_map_search(label):
    """The same normal subsystems, in the same order, as the search that
    adds every missing map of F inside T: on the F of each bundled
    descriptor, and on F_S(G) of the named groups at each prime."""
    name, _, rest = label.partition(":")
    if rest == "F":
        F = Instance(load_descriptor(name)).F
    else:
        G = _group(*NAMED_GROUPS[name][0])
        p = int(rest[2:])
        F = fusion_of_group(G, sylow_subgroup(G, p), p=p)
    got = normal_subsystems(F)
    assert got == normal_subsystems_by_every_map(F)
    assert F in got


def test_systems_are_the_sylow_fusion_systems():
    assert [(F.S.order, len(F.maps)) for F in SYSTEMS] == [
        (8, 28), (4, 5), (32, 742)]


if hypothesis is not None:
    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.data())
    def test_generated_subsystems_match_every_map_oracles(data):
        """E = close(T, 2, maps of F inside T) for T <= S and up to three
        maps of F = F_S(G)."""
        F = data.draw(st.sampled_from(SYSTEMS))
        t = data.draw(st.sampled_from(F.lattice))
        inside = sorted(maps_inside(F.maps, t))
        gens = data.draw(st.lists(st.sampled_from(inside), max_size=3))
        check_against_oracles(F, close(F.S, 2, gens, t=t))


def test_inner_maps_are_kept_on_the_index():
    for F in SYSTEMS:
        S, idx = F.S, F.index
        got = inner_maps(S)
        assert got is inner_maps(S)
        assert isinstance(got, frozenset)
        assert got == _conjugation_maps(idx, F.t, S.elements)
        assert idx.inner_maps[F.t] is got


def test_bundled_suites_build_inner_maps_once_per_index(tmp_path,
                                                        monkeypatch):
    """Over the six bundled ``suite`` runs, no subgroup T of an index
    builds its inner maps (``_conjugation_maps`` by T itself) twice.  The
    indices are held, so that none is freed and its id reused."""
    calls = []

    def recording(idx, t, acting):
        calls.append((idx, t, frozenset(acting) == set(idx.members(t))))
        return real(idx, t, acting)
    real = fusion._conjugation_maps
    monkeypatch.setattr(fusion, "_conjugation_maps", recording)
    out = tmp_path / "r.json"
    for name in BUNDLED:
        assert main(["suite", name, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["ok"] is True
    inner = [(id(idx), t) for idx, t, by_t in calls if by_t]
    assert inner and len(set(inner)) == len(inner)
    assert len(calls) <= 26
