import functools

import pytest

from qlattice.core_order import StateSpace
from qlattice.realspaces import spin_space
from qlattice.tensor import indeterministic_tensor
from qlattice.ontic import build_completion
from qlattice.geometry import build_geometry
from qlattice.quantum import BellScenario, bool_square as _bool_square


@pytest.fixture(scope="session", autouse=True)
def meet_scanned():
    """Every space that StateSpace.from_keys builds in the tests, each of
    them put through the full _validate, with the meet scan that from_keys
    skips.  Yields the element counts of the spaces scanned, in build
    order."""
    scanned = []
    build = StateSpace.from_keys.__func__

    @functools.wraps(build)
    def scanning(cls, names, keys, reverse=False):
        space = build(cls, names, keys, reverse)
        space._validate()
        scanned.append(space.n)
        return space

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(StateSpace, "from_keys", classmethod(scanning))
        yield scanned


@pytest.fixture(scope="session")
def z2():
    return spin_space(2)


@pytest.fixture(scope="session")
def z2_completion(z2):
    return build_completion(z2)


@pytest.fixture(scope="session")
def two_qubit(z2):
    return indeterministic_tensor(z2, z2)


@pytest.fixture(scope="session")
def z3z2():
    return indeterministic_tensor(spin_space(3), spin_space(2))


@pytest.fixture(scope="session")
def geo_wide(two_qubit):
    ts, comp = two_qubit
    return build_geometry(comp, ts, variant="wide")


@pytest.fixture(scope="session")
def geo_narrow(two_qubit):
    ts, comp = two_qubit
    return build_geometry(comp, ts, variant="narrow")


@pytest.fixture(scope="session")
def geo_z3z2_wide(z3z2):
    ts, comp = z3z2
    return build_geometry(comp, ts, variant="wide")


@pytest.fixture(scope="session")
def bool_square():
    return _bool_square()


@pytest.fixture(scope="session")
def scenario(z2, two_qubit):
    ts, _ = two_qubit
    a, b = z2.space.index("a"), z2.space.index("b")
    return BellScenario(z2, z2, a, b, a, b, ts=ts)
