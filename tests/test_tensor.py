import functools
import random
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qlattice.core_order import CapExceeded, InputError, bits, transpose
from qlattice.realspaces import (bool_real_space, simplex_space, spin_space,
                                 is_deterministic)
from qlattice.tensor import (TensorSpace, build_tensor, nfold_tensor,
                             congruence_oracle)

from test_core_order import _oracle_meet_table


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
    same = ts.normalize(base) == ts.normalize(extra)
    assert same == congruence_oracle(ts, base, extra)
    assert (ts.index_of(base) == ts.index_of(extra)) == same


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
    s = ts.real_space.star_of(u)
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
        # the expansion formula on the pooled list, and the built order
        assert m == ts._cover_index[ts.normalize(pooled)]
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
    # a negative cap is below every count, not switched off
    for cap in (20, -1):
        with pytest.raises(CapExceeded):
            build_tensor(spin_space(2), spin_space(2), cap=cap)


def test_serialize_element_roundtrip(two_qubit):
    ts, _ = two_qubit
    for idx in (0, 1, ts.space.n - 1, ts.space.bottom):
        data = ts.serialize_element(idx)
        assert data


def test_cover_mask_bits_are_the_pure_tensors_above(two_qubit):
    ts, _ = two_qubit
    pures = [ts.pure_tensor(*pp) for pp in ts.pure_pairs]
    for i in range(len(ts)):
        mask = ts.cover_mask(i)
        for k, p in enumerate(pures):
            assert bool(mask >> k & 1) == bool(ts.space.leq[i, p])
        assert ts.cover_set(i) == frozenset(bits(mask))


def test_pinned_scale_counts():
    assert len(build_tensor(spin_space(3), spin_space(2))) == 239
    assert len(build_tensor(spin_space(3), spin_space(3))) == 535


# -- references: the pair search over the numpy expansion formula, with
# names, order and star read off the factors' leq matrices -------------------

# the factors' meet tables, read off leq
_leq_meet_table = functools.lru_cache(maxsize=None)(_oracle_meet_table)


def _reference_normalize(ts, gens):
    """Cover mask of the meet of the generating pairs and the reduced
    generator tuple, by the expansion formula on numpy arrays."""
    la, lb = ts.left.space, ts.right.space
    gens = sorted(set((int(a), int(b)) for a, b in gens))
    gens = [(a, b) for a, b in gens
            if not any((x, y) != (a, b) and la.leq[x, a] and lb.leq[y, b]
                       for x, y in gens)]
    n = len(gens)
    if n == 0:
        raise InputError("empty generator list")
    if n > 20:
        raise CapExceeded("expansion formula over %d generators" % n)
    ta = np.array([pa for pa, _ in ts.pure_pairs])
    tb = np.array([pb for _, pb in ts.pure_pairs])
    lm = np.zeros(1 << n, dtype=np.int64)
    rm = np.zeros(1 << n, dtype=np.int64)
    for b in range(n):
        half = 1 << b
        lm[half:2 * half] = _leq_meet_table(la)[lm[:half], gens[b][0]]
        rm[half:2 * half] = _leq_meet_table(lb)[rm[:half], gens[b][1]]
        lm[half] = gens[b][0]
        rm[half] = gens[b][1]
    l_ok = la.leq[lm[1:]][:, ta]
    r_ok = lb.leq[rm[1:]][:, tb]
    ok = l_ok[-1] & r_ok[-1]
    if n > 1:
        ok &= (l_ok[:-1] | r_ok[:-1][::-1]).all(axis=0)
    return sum(1 << int(k) for k in np.flatnonzero(ok)), tuple(gens)


def _reference_covers(ts):
    """Every element's cover mask, by meeting every pair of known elements
    until no new one appears."""
    memo = {}
    gens_of = {1 << k: [pp] for k, pp in enumerate(ts.pure_pairs)}
    queue = list(gens_of)
    seen = set()
    while queue:
        u = queue.pop()
        for v in list(gens_of):
            pair = (min(u, v), max(u, v))
            if u == v or pair in seen:
                continue
            seen.add(pair)
            key = tuple(sorted(set(gens_of[u] + gens_of[v])))
            if key not in memo:
                memo[key] = _reference_normalize(ts, key)
            w, reduced = memo[key]
            if w not in gens_of:
                gens_of[w] = list(reduced)
                queue.append(w)
    return sorted(gens_of, key=lambda u: (u.bit_count(), bits(u)))


def _reference_space(ts):
    """(covers, names, leq, star) of the tensor, from the references."""
    la, lb = ts.left.space, ts.right.space
    pairs = ts.pure_pairs
    covers = _reference_covers(ts)
    if is_deterministic(ts.left) and is_deterministic(ts.right):
        # the simplex fast path lists every nonempty mask in increasing order
        covers.sort()

    def above(x, y):
        return sum(1 << k for k, (p, q) in enumerate(pairs)
                   if la.leq[x, p] and lb.leq[y, q])

    rects = [((x, y), above(x, y)) for x in range(la.n) for y in range(lb.n)]
    names = []
    for u in covers:
        inside = [(xy, r) for xy, r in rects if r and r & ~u == 0]
        maximal = sorted(xy for xy, r in inside
                         if not any(o != r and r & ~o == 0
                                    for _, o in inside))
        names.append(" ⊓ ".join("%s⊗%s" % (la.names[x], lb.names[y])
                                for x, y in maximal))
    leq = np.array([[set(bits(v)) <= set(bits(u)) for v in covers]
                    for u in covers])
    full = (1 << len(pairs)) - 1
    star_cover = []
    for p, q in pairs:
        sp, sq = ts.left.star_of(p), ts.right.star_of(q)
        star_cover.append(sum(1 << k for k, (a, b) in enumerate(pairs)
                              if la.leq[sp, a] or lb.leq[sq, b]))
    star = {}
    for i, u in enumerate(covers):
        if u != full:
            s = full
            for k in bits(u):
                s &= star_cover[k]
            star[i] = covers.index(s)
    return covers, names, leq, star


def _check_against_reference(ts):
    covers, names, leq, star = _reference_space(ts)
    assert ts._covers == covers
    assert ts.space.names == names
    assert np.array_equal(ts.space.leq, leq)
    assert ts.real_space.star == star
    # from_keys hands the inclusion rows in as the down-sets
    assert ts.space.down == transpose(ts.space.up, ts.space.n)


_FACTORS = {"bool": bool_real_space, "spin2": lambda: spin_space(2),
            "spin3": lambda: spin_space(3),
            "simplex2": lambda: simplex_space(2)}


@pytest.mark.parametrize("left, right", [
    ("bool", "bool"), ("spin2", "spin2"), ("spin3", "spin2"),
    ("spin2", "simplex2"), ("simplex2", "simplex3")])
def test_tensor_matches_pair_search(left, right):
    factors = dict(_FACTORS, simplex3=lambda: simplex_space(3))
    _check_against_reference(build_tensor(factors[left](), factors[right]()))


@pytest.mark.parametrize("left, right, elements, expansions", [
    (2, 2, 113, 556), (3, 2, 239, 1818)], ids=["z2z2", "z3z2"])
def test_tensor_walk_expands_each_generator_list_once(monkeypatch, left,
                                                      right, elements,
                                                      expansions):
    # the Close-by-One walk expands each listed set (and the empty root)
    # with each later pure pair outside it, each set from one generator
    # list, so no list comes twice; the cap counts the elements.  A walk
    # that lists sets more than once blows up, so the count stops it
    calls = []
    expand = TensorSpace._expand

    def counted(self, gens):
        calls.append(gens)
        assert len(calls) <= expansions, "more expansions than pinned"
        return expand(self, gens)

    with pytest.raises(CapExceeded, match="enumeration cap"):
        build_tensor(spin_space(left), spin_space(right), cap=elements - 1)
    monkeypatch.setattr(TensorSpace, "_expand", counted)
    ts = build_tensor(spin_space(left), spin_space(right), cap=elements)
    assert (len(ts), len(calls), len(set(calls))) == (elements, expansions,
                                                       expansions)


# spin(3) with spin(3) is left to the pinned count: its pair search takes
# about 6 s
@settings(max_examples=8, deadline=None)
@given(st.sampled_from(sorted(_FACTORS)), st.sampled_from(sorted(_FACTORS)))
def test_tensor_matches_pair_search_on_drawn_factors(left, right):
    assume(not left == right == "spin3")
    _check_against_reference(build_tensor(_FACTORS[left](),
                                          _FACTORS[right]()))


def _random_generators(rng, ts):
    """1 to 7 generating pairs: pure, non-pure and bottom components, with
    duplicates and pairs that refine one another."""
    la, lb = ts.left.space, ts.right.space
    gens = []
    for _ in range(rng.randint(1, 5)):
        roll = rng.random()
        if roll < 0.4:
            gens.append(rng.choice(ts.pure_pairs))
        elif roll < 0.55:
            gens.append((la.bottom, rng.randrange(lb.n)))
        elif roll < 0.7:
            gens.append((rng.randrange(la.n), lb.bottom))
        else:
            gens.append((rng.randrange(la.n), rng.randrange(lb.n)))
    for _ in range(rng.randint(0, 2)):
        a, b = rng.choice(gens)
        if rng.random() < 0.5:
            gens.append((a, b))
        else:
            gens.append((la.meet(a, rng.randrange(la.n)),
                         lb.meet(b, rng.randrange(lb.n))))
    rng.shuffle(gens)
    return gens


@pytest.mark.parametrize("left, right", [
    (lambda: spin_space(3), lambda: spin_space(2)),
    (lambda: spin_space(2), lambda: simplex_space(3)),
    (lambda: simplex_space(3), lambda: spin_space(2))])
def test_normalize_matches_numpy_expansion_formula(left, right):
    ts = build_tensor(left(), right())
    rng = random.Random(7)
    for _ in range(1500):
        gens = _random_generators(rng, ts)
        assert ts.normalize(gens) == _reference_normalize(ts, gens)[0]


@pytest.mark.parametrize("left, right", [
    (lambda: spin_space(2), lambda: spin_space(2)),
    (lambda: spin_space(3), lambda: spin_space(2)),
    (lambda: spin_space(4), lambda: spin_space(4)),
    (lambda: spin_space(2), lambda: simplex_space(3))],
    ids=["z2z2", "z3z2", "z4z4", "z2s3"])
def test_tensor_keeps_no_expansion_cache(left, right):
    # no attribute keeps more entries than there are elements, as a
    # normalize cache kept past the build would (45,719 keys on Z4xZ4)
    ts = build_tensor(left(), right())
    ts.normalize(ts.pure_pairs[:2])
    assert max(len(v) for v in vars(ts).values()
               if isinstance(v, (dict, list))) == len(ts)


def test_normalize_errors_match_reference():
    ts = build_tensor(spin_space(3), spin_space(2))
    for gens, error in (([], InputError), (ts.pure_pairs, CapExceeded)):
        assert len(ts.pure_pairs) > 20
        with pytest.raises(error):
            ts.normalize(gens)
        with pytest.raises(error):
            _reference_normalize(ts, gens)


@pytest.mark.parametrize("left, right, sets", [
    (lambda: spin_space(2), lambda: spin_space(2), 2625),
    (lambda: spin_space(3), lambda: spin_space(2), 7175),
    (bool_real_space, bool_real_space, 129),
    (lambda: simplex_space(2), lambda: simplex_space(3), 1561),
    (lambda: spin_space(2), bool_real_space, 575)],
    ids=["z2z2", "z3z2", "bool-square", "s2s3", "z2bool"])
def test_index_of_matches_normalize_on_small_generator_sets(left, right,
                                                           sets):
    # every set of at most three factor-element pairs, not only pure ones
    ts = build_tensor(left(), right())
    pairs = list(product(range(ts.left.space.n), range(ts.right.space.n)))
    checked = 0
    for r in (1, 2, 3):
        for gens in combinations(pairs, r):
            checked += 1
            assert ts.index_of(gens) == ts._cover_index[ts.normalize(gens)]
    assert checked == sets
    with pytest.raises(InputError):
        ts.index_of([])


@pytest.mark.parametrize("left, right", [
    (lambda: spin_space(2), lambda: spin_space(2)),
    (lambda: spin_space(3), lambda: spin_space(2)),
    (lambda: spin_space(2), lambda: spin_space(3)),
    (lambda: spin_space(3), lambda: spin_space(3)),
    (lambda: spin_space(4), lambda: spin_space(2)),
    (bool_real_space, bool_real_space),
    (lambda: spin_space(2), bool_real_space),
    (lambda: simplex_space(2), lambda: simplex_space(3)),
    (lambda: simplex_space(3), lambda: simplex_space(3)),
    (lambda: spin_space(2), lambda: simplex_space(3))],
    ids=["z2z2", "z3z2", "z2z3", "z3z3", "z4z2", "bool-square", "z2bool",
         "s2s3", "s3s3", "z2s3"])
def test_every_rectangle_is_an_element(left, right):
    # x⊗y is the element whose cover set holds the pure pairs above x and
    # above y, and the one the table gives
    ts = build_tensor(left(), right())
    la, lb = ts.left.space, ts.right.space
    for x in range(la.n):
        for y in range(lb.n):
            rect = sum(1 << k for k, (pa, pb) in enumerate(ts.pure_pairs)
                       if la.up[x] >> pa & 1 and lb.up[y] >> pb & 1)
            assert ts.cover_mask(ts._rect[x][y]) == rect
            assert ts.normalize([(x, y)]) == rect
