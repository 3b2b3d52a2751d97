import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from qlattice.core_order import CapExceeded, bits
from qlattice.realspaces import bool_real_space, simplex_space, spin_space
from qlattice.tensor import (build_tensor, nfold_tensor, SimplexPower,
                             congruence_oracle)


def test_bool_square_size(bool_square):
    # free simplex on 4 pure tensors
    assert bool_square.space.n == 15
    assert len(bool_square.space.pures()) == 4


def test_simplex_factors_give_simplex():
    ts = build_tensor(simplex_space(2), simplex_space(3))
    assert len(ts.space.pures()) == 6
    assert ts.space.n == 2 ** 6 - 1


def test_two_qubit_sizes(two_qubit):
    ts, comp = two_qubit
    assert ts.space.n == 113
    assert comp.space.n == 217
    hidden = sum(comp.is_hidden(i) for i in range(comp.space.n))
    assert hidden == 104


def test_index_of_is_order_insensitive(two_qubit, z2):
    ts, _ = two_qubit
    a, b = z2.space.index("a"), z2.space.index("b")
    gens = [(a, a), (b, b)]
    assert ts.index_of(gens) == ts.index_of(list(reversed(gens)))


def test_index_of_drops_duplicate_generators(two_qubit, z2):
    ts, _ = two_qubit
    a, b = z2.space.index("a"), z2.space.index("b")
    with_dup = ts.index_of([(a, a), (b, b), (a, a)])
    assert with_dup == ts.index_of([(a, a), (b, b)])


def test_extra_generator_agrees_with_oracle(two_qubit, z2):
    # whether an extra one-sided generator is absorbed is decided the same
    # way by normalization and by the evaluation oracle
    ts, _ = two_qubit
    a, b = z2.space.index("a"), z2.space.index("b")
    bot = z2.space.bottom
    base = [(a, a), (b, b)]
    extra = base + [(a, bot)]
    assert (ts.index_of(base) == ts.index_of(extra)) == \
        congruence_oracle(ts, base, extra)


def test_bottom_pair_is_the_tensor_bottom(two_qubit, z2):
    ts, _ = two_qubit
    bot = z2.space.bottom
    assert ts.index_of([(bot, bot)]) == ts.space.bottom


def test_partial_trace_of_pure_tensor(two_qubit, z2):
    ts, _ = two_qubit
    for p in z2.space.pures():
        for q in z2.space.pures():
            u = ts.pure_tensor(p, q)
            assert ts.partial_trace(u, 1) == p
            assert ts.partial_trace(u, 2) == q


def test_star_of_pure_tensor(two_qubit, z2):
    # the star of a pure tensor covers exactly the row of a* and column of b*
    ts, _ = two_qubit
    a = z2.space.index("a")
    b = z2.space.index("b")
    u = ts.pure_tensor(a, b)
    s = ts.star(u)
    astar, bstar = z2.star_of(a), z2.star_of(b)
    want = frozenset(k for k, (p, q) in enumerate(ts.pure_pairs)
                     if p == astar or q == bstar)
    assert ts.cover_set(s) == want
    assert ts.meet(u, s) == ts.space.bottom


def test_meet_matches_pooled_generators(two_qubit):
    # the meet of two elements is the element generated by both cover sets
    ts, _ = two_qubit
    rng = random.Random(5)
    for _ in range(60):
        i = rng.randrange(ts.space.n)
        j = rng.randrange(ts.space.n)
        m = ts.meet(i, j)
        pooled = [ts.pure_pairs[k] for k in ts.cover_set(i)] + \
            [ts.pure_pairs[k] for k in ts.cover_set(j)]
        assert m == ts.index_of(pooled)
        assert ts.cover_set(m) >= (ts.cover_set(i) | ts.cover_set(j))


def test_congruence_oracle_agrees_with_normalize(two_qubit, z2):
    ts, _ = two_qubit
    a, b = z2.space.index("a"), z2.space.index("b")
    astar = z2.star_of(a)
    same1 = [(a, a), (b, b)]
    same2 = [(b, b), (a, a)]
    diff = [(a, b), (b, a)]
    assert congruence_oracle(ts, same1, same2)
    assert not congruence_oracle(ts, same1, diff)
    assert ts.index_of(same1) == ts.index_of(same2)
    assert ts.index_of(same1) != ts.index_of(diff)
    assert not congruence_oracle(ts, [(a, a)], [(astar, astar)])


def test_nfold_tensor_matches_iterated():
    brs = bool_real_space()
    three = nfold_tensor([brs, brs, brs])
    assert len(three.space.pures()) == 8
    assert three.space.n == 2 ** 8 - 1


def test_cap_is_enforced():
    with pytest.raises(CapExceeded):
        build_tensor(spin_space(2), spin_space(2), cap=20)


def test_serialize_element_roundtrip(two_qubit):
    ts, _ = two_qubit
    for idx in (0, 1, ts.space.n - 1, ts.space.bottom):
        data = ts.serialize_element(idx)
        assert data


# -- mask-encoded simplex powers ----------------------------------------------

_POWER = SimplexPower([bool_real_space()] * 3)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, _POWER.full), st.integers(1, _POWER.full))
def test_power_meet_join_laws(x, y):
    m = _POWER.meet(x, y)
    assert _POWER.leq(m, x) and _POWER.leq(m, y)
    j = _POWER.join(x, y)
    if j is not None:
        assert _POWER.leq(x, j) and _POWER.leq(y, j)
    else:
        assert x & y == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(1, _POWER.full - 1))
def test_power_star_involution(x):
    # full mask is the bottom element, whose star is undefined
    assert _POWER.star(_POWER.star(x)) == x


def test_power_embed_project_roundtrip():
    power = SimplexPower([bool_real_space()] * 4)
    sub = SimplexPower([bool_real_space()] * 2)
    factors = [{0}, {0, 1}, {1}, {0}]
    mask = power.embed_factors(factors)
    for coords in ((0, 1), (2, 3), (0, 3)):
        want = sub.embed_factors([factors[c] for c in coords])
        assert power.project(mask, coords) == want


def test_power_pure_masks_are_singleton_bits():
    for t in _POWER.tuples:
        mask = _POWER.pure_mask(t)
        assert mask and mask & (mask - 1) == 0


def test_cover_mask_bits_are_the_pure_tensors_above(two_qubit):
    ts, _ = two_qubit
    pures = [ts.pure_tensor(*pp) for pp in ts.pure_pairs]
    for i in range(len(ts)):
        mask = ts.cover_mask(i)
        for k, p in enumerate(pures):
            assert bool(mask >> k & 1) == bool(ts.space.leq[i, p])
        assert ts.cover_set(i) == frozenset(bits(mask))
