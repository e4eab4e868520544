import pytest

from locfusion.permgroup import FiniteGroup, generated_subgroup, sylow_subgroup

from cycles import from_cycles


@pytest.fixture(scope="session")
def s4():
    return FiniteGroup(4, [from_cycles(4, (1, 2, 3, 4)),
                           from_cycles(4, (1, 2))])


@pytest.fixture(scope="session")
def s4_sylow(s4):
    return sylow_subgroup(s4, 2)


@pytest.fixture(scope="session")
def klein(s4):
    return generated_subgroup(s4, [from_cycles(4, (1, 2), (3, 4)),
                                   from_cycles(4, (1, 3), (2, 4))])


@pytest.fixture(scope="session")
def a4_elements(s4):
    def sign(g):
        return sum(1 for i in range(4) for j in range(i + 1, 4)
                   if g[i] > g[j]) % 2
    return tuple(g for g in s4 if sign(g) == 0)


@pytest.fixture(scope="session")
def s5():
    return FiniteGroup(5, [from_cycles(5, (1, 2, 3, 4, 5)),
                           from_cycles(5, (1, 2))])


@pytest.fixture(scope="session")
def s5_sylow(s5):
    return generated_subgroup(s5, [from_cycles(5, (1, 2, 3, 4)),
                                   from_cycles(5, (1, 3))])


@pytest.fixture(scope="session")
def loc_a():
    from locfusion.instances import build_locality, load_descriptor
    return build_locality(load_descriptor("instance-a"))


@pytest.fixture(scope="session")
def loc_b():
    from locfusion.instances import build_locality, load_descriptor
    return build_locality(load_descriptor("instance-b"))
