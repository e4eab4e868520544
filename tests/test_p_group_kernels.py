"""The three p-group kernels of ``SIndex`` against their direct forms.

``SIndex.lattice`` extends each subgroup by elements of its normalizer,
one index-p step at a time; ``join_closure_lattice`` joins cyclic
subgroups.  ``SIndex.normalizer`` tests one element per right coset of
P, and ``SIndex.aut_s`` groups N_S(P) by the map each element induces;
``normalizer_by_elements`` and ``aut_s_by_elements`` test every element
of S.  The cases are the Sylow subgroups of S4×S4 and S6×C2 at p = 2,
of S9 and S3×S3×S3 at p = 3 and of S5×S5 at p = 5, every subgroup of
each, and a derandomized sample of the subgroups generated by one to
three of their elements.
"""

import pytest

from locfusion.permgroup import (FiniteGroup, SIndex, bit_positions,
                                 generated_subgroup, sylow_subgroup)

from answer_oracles import (aut_s_by_elements, join_closure_lattice,
                            normalizer_by_elements)
from cycles import from_cycles

try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:  # only the sampled test needs it
    hypothesis = None


def _group(degree, *cycles):
    return FiniteGroup(degree, [from_cycles(degree, *c) for c in cycles])


def _sylow_cases():
    """(label, S).  S9 (order 362,880) and S5×S5 (order 14,400) are not
    enumerated: their Sylow subgroups, C3 wr C3 and C5×C5, are built from
    generators."""
    s4xs4 = _group(8, [(1, 2, 3, 4)], [(1, 2)], [(5, 6, 7, 8)], [(5, 6)])
    s6xc2 = _group(8, [(1, 2, 3, 4, 5, 6)], [(1, 2)], [(7, 8)])
    s3xs3xs3 = _group(9, [(1, 2, 3)], [(1, 2)], [(4, 5, 6)], [(4, 5)],
                      [(7, 8, 9)], [(7, 8)])
    s9_sylow = _group(9, [(1, 2, 3)], [(1, 4, 7), (2, 5, 8), (3, 6, 9)])
    s5xs5_sylow = _group(10, [(1, 2, 3, 4, 5)], [(6, 7, 8, 9, 10)])
    return [("S4xS4:p=2", sylow_subgroup(s4xs4, 2)),
            ("S6xC2:p=2", sylow_subgroup(s6xc2, 2)),
            ("S9:p=3", s9_sylow.full_subgroup()),
            ("S3xS3xS3:p=3", sylow_subgroup(s3xs3xs3, 3)),
            ("S5xS5:p=5", s5xs5_sylow.full_subgroup())]


SYLOW_CASES = _sylow_cases()


def check_normalizer_and_aut_s(idx, m):
    """N_S(P) and Aut_S(P) for the subgroup mask m, against the element
    scans; the class masks of ``aut_s`` partition N_S(P), and each holds
    exactly the elements that induce its map."""
    n = normalizer_by_elements(idx, m)
    assert idx.normalizer(m) == n
    classes = idx.aut_s(m)
    assert classes.keys() == aut_s_by_elements(idx, m)
    masks = list(classes.values())
    assert all(masks) and sum(masks) == n
    assert all(a & b == 0 for i, a in enumerate(masks) for b in masks[:i])
    ps = bit_positions(m)
    for s in bit_positions(n):
        assert classes[tuple(idx.inner(s)[i] for i in ps)] >> s & 1


def test_cases_are_the_sylow_subgroups():
    assert [(label, S.order) for label, S in SYLOW_CASES] == [
        ("S4xS4:p=2", 64), ("S6xC2:p=2", 32), ("S9:p=3", 81),
        ("S3xS3xS3:p=3", 27), ("S5xS5:p=5", 25)]


@pytest.mark.parametrize("label,S", SYLOW_CASES,
                         ids=[c[0] for c in SYLOW_CASES])
def test_p_group_kernels_match_oracles(label, S):
    idx = SIndex(S)
    lattice = idx.lattice()
    assert lattice == join_closure_lattice(SIndex(S))
    for m in lattice:
        check_normalizer_and_aut_s(idx, m)


if hypothesis is not None:
    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.data())
    def test_p_group_kernels_on_generated_subgroups(data):
        """A subgroup P generated by one to three elements of a Sylow
        subgroup S: the lattice of P itself, and N_S(P) and Aut_S(P)."""
        _, S = data.draw(st.sampled_from(SYLOW_CASES))
        gens = data.draw(st.lists(st.sampled_from(S.elements),
                                  min_size=1, max_size=3))
        P = generated_subgroup(S.parent, gens)
        assert SIndex(P).lattice() == join_closure_lattice(SIndex(P))
        idx = SIndex(S)
        check_normalizer_and_aut_s(idx, idx.mask(P.elements))
