import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlattice.core_order import InputError
from qlattice.realspaces import (bool_real_space, simplex_space, spin_space)
from qlattice.tensor import build_tensor, global_section, least_section
from qlattice.ontic import build_completion
from qlattice import quantum

from section_reference import marginal


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
    assert sorted(scenario.sigma) == want


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
    assert ts.space.n == 113
    for rid in range(ts.space.n):
        phi = {}
        for a in (1, 2):
            for b in (3, 4):
                phi["%d%d" % (a, b)] = quantum.measurement_image(
                    scenario, scenario.phi[a - 1], scenario.rho[b - 3],
                    (rid,))
        lam = quantum.lambda_search(phi["13"], phi["14"], phi["23"],
                                    phi["24"], bb=bb)
        assert lam is not None
        built = quantum.constructive_lambda(scenario, (rid,))
        # the constructive witness reproduces all four marginals too
        for coords, key in (((0, 2), "13"), ((0, 3), "14"),
                            ((1, 2), "23"), ((1, 3), "24")):
            want = bb.cover_mask(phi[key])
            assert marginal(4, built, coords) == want


def test_lambda_names_list_the_outcome_tuples():
    # product order: the first setting is the high bit, and Y comes first
    assert quantum._tuple_names(4, 1) == "{Y⊗Y⊗Y⊗Y}"
    assert quantum._tuple_names(4, 2) == "{Y⊗Y⊗Y⊗N}"
    assert quantum._tuple_names(4, 0x8001) == "{Y⊗Y⊗Y⊗Y,N⊗N⊗N⊗N}"
    full = quantum._tuple_names(4, 0xffff)
    assert len(full) == 129
    assert full == "{" + ",".join("⊗".join(t)
                                  for t in product("YN", repeat=4)) + "}"


def test_bell_report_names_a_global_state(scenario, monkeypatch):
    # no scenario over spin pairs is local, so the named branch is forced
    monkeypatch.setattr(quantum, "lambda_search", lambda *phi: 0x8001)
    report = quantum.bell_report(scenario)
    assert report["lambda"] == "{Y⊗Y⊗Y⊗Y,N⊗N⊗N⊗N}"
    assert not report["nonlocal"]


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
    quadruple of pair marginals (13, 14, 23, 24), from the plain-loop
    marginal: a projection is the union of the projections of the mask's
    bits."""
    full = (1 << 16) - 1
    coords = ((0, 2), (0, 3), (1, 2), (1, 3))
    single = [[marginal(4, 1 << t, c) for c in coords] for t in range(16)]
    rng = random.Random(3)
    for mask in rng.sample(range(1, full + 1), 200):
        bits = [t for t in range(16) if mask >> t & 1]
        for slot, c in enumerate(coords):
            union = 0
            for t in bits:
                union |= single[t][slot]
            assert marginal(4, mask, c) == union
    proj = [None] * (full + 1)
    proj[0] = (0, 0, 0, 0)
    best = {}
    for mask in range(1, full + 1):
        low = (mask & -mask).bit_length() - 1
        rest = proj[mask & (mask - 1)]
        proj[mask] = tuple(r | s for r, s in zip(rest, single[low]))
        best.setdefault(proj[mask], mask)
    return best


def _pair_masks(bb):
    """Each boolean tensor square element as a state over two settings,
    from the values of its pure pairs (pure 0 is Y, pure 1 is N)."""
    return [sum(1 << (2 * a + b) for a, b in
                (bb.pure_pairs[k] for k in bb.cover_set(i)))
            for i in range(len(bb))]


def test_lambda_search_matches_projection_oracle(scenario, bool_square):
    bb = bool_square
    pair_mask = _pair_masks(bb)
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
    are those below 1 << k ORed with the marginals of pure tuple k.  A key
    packs the pair marginals 13, 14, 23, 24 as 4-bit masks, low to high."""
    coords = ((0, 2), (0, 3), (1, 2), (1, 3))
    keys = np.zeros(1, dtype=np.uint16)
    for k in range(16):
        bit = 0
        for slot, c in enumerate(coords):
            bit |= marginal(4, 1 << k, c) << (4 * slot)
        keys = np.concatenate((keys, keys | np.uint16(bit)))
    return keys[1:]


def test_lambda_search_matches_numpy_doubling_and_projection(bool_square):
    # every quadruple of boolean tensor square elements, against the
    # smallest mask of each key from the numpy doubling and from projection
    bb = bool_square
    pair_mask = _pair_masks(bb)
    keys = _numpy_scan_keys()
    assert len(keys) == 65535
    first = {}
    for index, key in enumerate(keys.tolist()):
        first.setdefault(key, index + 1)
    assert len(first) == 1721
    best = _scan_oracle()
    assert best == {tuple(key >> (4 * slot) & 15 for slot in range(4)): mask
                    for key, mask in first.items()}
    found = 0
    for quad in product(range(len(bb)), repeat=4):
        want = best.get(tuple(pair_mask[m] for m in quad))
        assert quantum.lambda_search(*quad, bb=bb) == want
        found += want is not None
    assert found == 1721


# -- the global-section routine over k binary settings ------------------------

@settings(max_examples=150, deadline=None)
@given(st.data())
def test_projections_of_a_state_have_a_global_section(data):
    # over 2-6 settings, up to 64 outcome tuples
    k = data.draw(st.integers(2, 6))
    state = data.draw(st.integers(1, (1 << (1 << k)) - 1))
    pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
    pairs = data.draw(st.lists(st.sampled_from(pairs), min_size=1,
                               max_size=8))
    marginals = [(c, marginal(k, state, c)) for c in pairs]
    s_max, need = global_section(k, marginals)
    assert all(s_max & cell for cell in need)
    # S_max lies below the state in the power's order (it holds every
    # tuple of the state) and has the same marginals
    assert state & ~s_max == 0
    assert [(c, marginal(k, s_max, c)) for c in pairs] == marginals
    least = least_section(s_max, need)
    assert least is not None and least <= state
    assert [(c, marginal(k, least, c)) for c in pairs] == marginals


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_global_section_matches_subset_brute_force(data):
    k = data.draw(st.integers(1, 3))
    coords = st.permutations(range(k)).flatmap(
        lambda p: st.integers(1, k).map(lambda m: tuple(p[:m])))
    marginals = data.draw(st.lists(coords, max_size=4))
    if data.draw(st.booleans()):
        # the marginals of a drawn state, so that acceptances are common
        state = data.draw(st.integers(1, (1 << (1 << k)) - 1))
        marginals = [(c, marginal(k, state, c)) for c in marginals]
    else:
        marginals = [(c, data.draw(st.integers(0, (1 << (1 << len(c))) - 1)))
                     for c in marginals]
    matching = [s for s in range(1, 1 << (1 << k))
                if all(marginal(k, s, c) == m for c, m in marginals)]
    s_max, need = global_section(k, marginals)
    least = least_section(s_max, need)
    if not matching:
        assert least is None
    else:
        assert least == min(matching)
        union = 0
        for s in matching:
            union |= s
        assert s_max == union
