import random

import numpy as np
import pytest

from qlattice.core_order import InputError
from qlattice.realspaces import (bool_real_space, simplex_space, spin_space)
from qlattice.tensor import SimplexPower, build_tensor
from qlattice.ontic import build_completion
from qlattice import quantum


def test_broadcast_dichotomy_verdicts():
    assert quantum.broadcast_obstruction(bool_real_space())["broadcasts"]
    assert quantum.broadcast_obstruction(simplex_space(3))["broadcasts"]
    report = quantum.broadcast_obstruction(spin_space(2))
    assert not report["broadcasts"]
    assert report["joint_morphism_absent"]


def test_broadcast_obstruction_witness_shape():
    report = quantum.broadcast_obstruction(spin_space(2))
    w = report["witness"]
    assert w["kind"] == "obstruction"
    assert w["measurements"] == ["a", "b"]
    # the two routes to bottom force different images
    first, second = w["bottom_images"]
    assert first != second


def test_diagonal_map_is_total():
    rs = simplex_space(2)
    report = quantum.broadcast_obstruction(rs)
    assert len(report["witness"]["map"]) == rs.space.n


def test_sigma_is_hidden_with_three_components(scenario, z2):
    ts = scenario.ts
    a, b = z2.space.index("a"), z2.space.index("b")
    astar = z2.star_of(a)
    want = sorted([ts.index_of([(a, a), (b, b)]),
                   ts.index_of([(a, astar), (astar, b)]),
                   ts.index_of([(b, astar), (astar, a)])])
    assert sorted(scenario.components()) == want


@pytest.mark.parametrize("na, nb", [(2, 2), (3, 2)])
def test_sigma_is_the_completion_join(na, nb):
    # sigma, closed on the tensor alone, is the antichain of the join of
    # the two generators in the enumerated completion, and that is hidden
    left, right = spin_space(na), spin_space(nb)
    a, b = left.space.index("a"), left.space.index("b")
    ta, tb = right.space.index("a"), right.space.index("b")
    scenario = quantum.BellScenario(left, right, a, b, ta, tb)
    ts = build_tensor(left, right)
    comp = build_completion(ts.real_space)
    m1 = ts.index_of([(a, ta), (b, tb)])
    m2 = ts.index_of([(left.star_of(a), right.space.bottom),
                      (left.space.bottom, right.star_of(ta))])
    chi = comp.sharpening([m1, m2])
    assert comp.is_hidden(chi)
    assert scenario.sigma == comp.components(chi)
    assert scenario.serialize_sigma() == comp.serialize_element(chi)


def test_marginals_are_the_expected_elements(scenario, bool_square):
    bb = bool_square
    y, n, bot = 0, 1, 2
    phi = quantum.bell_marginals(scenario)
    assert phi["13"] == bb.index_of([(n, bot), (y, n)])
    assert phi["14"] == bb.index_of([(y, bot), (n, y)])
    assert phi["23"] == bb.index_of([(y, n), (bot, y)])
    assert phi["24"] == bb.space.bottom
    # two of the marginals coincide as elements
    assert phi["14"] == phi["23"]


def test_no_global_state_for_the_bell_marginals(scenario, bool_square):
    phi = quantum.bell_marginals(scenario)
    lam = quantum.lambda_search(phi["13"], phi["14"], phi["23"], phi["24"],
                                bb=bool_square)
    assert lam is None


def test_bell_report_is_nonlocal(scenario):
    report = quantum.bell_report(scenario)
    assert report["nonlocal"]
    assert report["lambda"] is None
    assert len(report["sigma"]) == 3


def test_real_states_admit_global_states(scenario, bool_square):
    bb = bool_square
    ts = scenario.ts
    power = SimplexPower([bool_real_space()] * 4)
    rng = random.Random(9)
    sample = rng.sample(range(ts.space.n), 12)
    for rid in sample:
        phi = {}
        for a in (1, 2):
            for b in (3, 4):
                phi["%d%d" % (a, b)] = quantum.measurement_image(
                    scenario, scenario.phi[a - 1], scenario.rho[b - 3],
                    (rid,))
        lam = quantum.lambda_search(phi["13"], phi["14"], phi["23"],
                                    phi["24"], bb=bb)
        assert lam is not None
        built = quantum.constructive_lambda(scenario, (rid,), power)
        # the constructive witness reproduces all four marginals too
        for coords, key in (((0, 2), "13"), ((0, 3), "14"),
                            ((1, 2), "23"), ((1, 3), "24")):
            want = bb.cover_mask(phi[key])
            assert power.project(built, coords) == want


def test_constructive_lambda_rejects_hidden_states(scenario):
    with pytest.raises(InputError):
        quantum.constructive_lambda(scenario, scenario.sigma)


def test_scenario_validation(z2, scenario):
    a = z2.space.index("a")
    with pytest.raises(InputError):
        quantum.BellScenario(z2, z2, a, z2.star_of(a), a, a,
                             ts=scenario.ts)


def _scan_oracle():
    """Smallest state mask of the fourfold boolean simplex power for each
    quadruple of pair marginals (13, 14, 23, 24), from SimplexPower.project:
    a projection is the union of the projections of the mask's bits."""
    power = SimplexPower([bool_real_space()] * 4)
    coords = ((0, 2), (0, 3), (1, 2), (1, 3))
    single = [[power.project(1 << k, c) for c in coords]
              for k in range(power.count)]
    rng = random.Random(3)
    for mask in rng.sample(range(1, power.full + 1), 200):
        bits = [k for k in range(power.count) if mask >> k & 1]
        for slot, c in enumerate(coords):
            union = 0
            for k in bits:
                union |= single[k][slot]
            assert power.project(mask, c) == union
    proj = [None] * (power.full + 1)
    proj[0] = (0, 0, 0, 0)
    best = {}
    for mask in range(1, power.full + 1):
        low = (mask & -mask).bit_length() - 1
        rest = proj[mask & (mask - 1)]
        proj[mask] = tuple(r | s for r, s in zip(rest, single[low]))
        best.setdefault(proj[mask], mask)
    return best


def test_lambda_search_matches_projection_oracle(scenario, bool_square):
    bb = bool_square
    sub = SimplexPower([bool_real_space()] * 2)
    pair_mask = {}
    for idx in range(len(bb)):
        mask = 0
        for k in bb.cover_set(idx):
            mask |= sub.pure_mask(bb.pure_pairs[k])
        pair_mask[idx] = mask
    best = _scan_oracle()
    bell = quantum.bell_marginals(scenario)
    quads = [tuple(bell[k] for k in ("13", "14", "23", "24"))]
    for rid in range(scenario.ts.space.n):
        quads.append(tuple(quantum.measurement_image(
            scenario, scenario.phi[a], scenario.rho[b], (rid,))
            for a in (0, 1) for b in (0, 1)))
    rng = random.Random(17)
    quads += [tuple(rng.randrange(len(bb)) for _ in range(4))
              for _ in range(2000)]
    found = 0
    for q in quads:
        want = best.get(tuple(pair_mask[m] for m in q))
        assert quantum.lambda_search(*q, bb=bb) == want
        found += want is not None
    assert best.get(tuple(pair_mask[m] for m in quads[0])) is None
    assert found >= 113


def _numpy_scan_keys():
    """The scan key of every state mask m, at entry m - 1, by doubling a
    numpy array over all 65,535 masks: the keys of the masks with top bit k
    are those below 1 << k ORed with the marginals of pure tuple k."""
    power = SimplexPower([bool_real_space()] * 4)
    keys = np.zeros(1, dtype=np.uint16)
    for k in range(power.count):
        bit = 0
        for slot, coords in enumerate(quantum._MARGINAL_COORDS):
            bit |= power.project(1 << k, coords) << (4 * slot)
        keys = np.concatenate((keys, keys | np.uint16(bit)))
    return keys[1:]


def test_scan_table_matches_numpy_doubling_and_projection():
    table = quantum._scan_table()
    keys = _numpy_scan_keys()
    assert len(keys) == 65535
    first = {}
    for index, key in enumerate(keys.tolist()):
        first.setdefault(key, index + 1)
    assert table == first
    assert len(table) == 1721
    # a seeded sample of masks, each keyed by projecting it directly: its
    # key is in the table, and the table's mask is the smallest with it
    power = SimplexPower([bool_real_space()] * 4)

    def key_of(mask):
        return sum(power.project(mask, c) << (4 * slot)
                   for slot, c in enumerate(quantum._MARGINAL_COORDS))

    rng = random.Random(29)
    for mask in rng.sample(range(1, power.full + 1), 300):
        key = key_of(mask)
        assert key == keys[mask - 1]
        best = table[key]
        assert best <= mask and key_of(best) == key
