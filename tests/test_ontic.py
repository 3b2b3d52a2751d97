import inspect
import random
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qlattice import ontic
from qlattice.core_order import (CapExceeded, InputError, StateSpace, bits,
                                 bool_space)
from qlattice.realspaces import (RealSpace, bool_real_space, spin_space,
                                 simplex_space)
from qlattice.tensor import build_tensor
from qlattice.ontic import (closure, closure_by_steps, closure_step,
                            is_star_free, is_unbounded_star_free,
                            build_completion)
from qlattice import verify
from qlattice.verify import counterexample_lattice
from order_reference import row_masks


def test_preclosure_counterexample_sets():
    space = counterexample_lattice()
    u = tuple(space.index(n) for n in ("u1", "u2", "u3"))
    once = closure_step(space, u)
    assert sorted(space.names[i] for i in once) == ["w", "y", "z"]
    twice = closure_step(space, once)
    assert sorted(space.names[i] for i in twice) == ["w", "x", "y", "z"]
    # the full closure reaches the fixed point
    full = closure(space, u)
    assert tuple(sorted(full)) == tuple(sorted(twice))


def test_closure_keeps_only_maximal_elements():
    space = simplex_space(3).space
    pures = space.pures()
    out = closure(space, [pures[0], space.meet(pures[0], pures[1])])
    assert list(out) == [pures[0]]


def test_star_freeness():
    rs = spin_space(2)
    a = rs.space.index("a")
    b = rs.space.index("b")
    assert is_star_free(rs, (a, b))
    assert not is_star_free(rs, (a, rs.star_of(a)))
    assert is_unbounded_star_free(rs, (a, b))


def _star_free_by_leq(rs, members):
    """The reference: one dense leq read per ordered member pair."""
    return not any(rs.space.leq[rs.star_of(x), y]
                   for x in members for y in members)


@pytest.mark.parametrize("make", [
    lambda: spin_space(2), lambda: spin_space(3), lambda: spin_space(4),
    lambda: simplex_space(2), lambda: simplex_space(3),
    lambda: simplex_space(4),
    lambda: build_tensor(spin_space(2), spin_space(2)).real_space,
    lambda: build_tensor(spin_space(3), spin_space(2)).real_space,
], ids=["spin2", "spin3", "spin4", "simplex2", "simplex3", "simplex4",
        "z2z2", "z3z2"])
def test_star_free_masks_match_leq(make):
    rs = make()
    space = rs.space
    others = [i for i in range(space.n) if i != space.bottom]
    rng = random.Random(space.n)
    sets = [(x,) for x in others]
    sets += [tuple(rng.sample(others, rng.randint(2, min(4, len(others)))))
             for _ in range(300)]
    # closed antichains, the inputs the completion passes
    sets += [closure(space, s) for s in sets[-100:]]
    verdicts = set()
    for members in sets:
        want = _star_free_by_leq(rs, members)
        assert is_star_free(rs, members) == want
        verdicts.add(want)
    assert verdicts == {True, False}


def test_completion_z2_shape(z2, z2_completion):
    comp = z2_completion
    assert len(comp) == 9
    hidden = [i for i in range(comp.space.n) if comp.is_hidden(i)]
    assert len(hidden) == 4
    got = {frozenset(z2.space.names[e] for e in comp.components(i))
           for i in hidden}
    assert got == {frozenset(p) for p in
                   (("a", "b"), ("a", "b*"), ("a*", "b"), ("a*", "b*"))}


def test_sharpening(z2, z2_completion):
    comp = z2_completion
    a, b = z2.space.index("a"), z2.space.index("b")
    chi = comp.sharpening([a, b])
    assert chi is not None and comp.is_hidden(chi)
    assert sorted(comp.components(chi)) == sorted((a, b))
    # a star pair is inadmissible
    assert comp.sharpening([a, z2.star_of(a)]) is None
    # a single real sharpens to its own embedding
    assert comp.sharpening([a]) == comp.embed(a)


def test_galois_law(z2, z2_completion):
    # sharpening of the real trace of chi is chi again, and more generally
    # sharpening(J) <= chi iff J is inside the trace of chi
    comp = z2_completion
    space = z2.space
    reals = list(range(space.n))

    def trace(chi):
        return frozenset(s for s in reals
                         if comp.space.leq[comp.embed(s), chi])

    for chi in range(comp.space.n):
        assert comp.sharpening(sorted(trace(chi))) == chi
    pairs = 0
    for chi in range(comp.space.n):
        tr = trace(chi)
        for r in range(1, len(reals) + 1):
            for j in combinations(reals, r):
                lam = comp.sharpening(list(j))
                if lam is None:
                    continue
                pairs += 1
                assert bool(comp.space.leq[lam, chi]) == \
                    (frozenset(j) <= tr)
    assert pairs > 0


def test_meet_join_against_order_oracle(z2_completion):
    comp = z2_completion
    space = comp.space
    n = space.n
    for i in range(n):
        for j in range(n):
            m = comp.meet(i, j)
            below = [c for c in range(n) if space.leq[c, i]
                     and space.leq[c, j]]
            assert all(space.leq[c, m] for c in below)
            ups = [c for c in range(n) if space.leq[i, c]
                   and space.leq[j, c]]
            jn = comp.join(i, j)
            if ups:
                assert jn is not None
                assert all(space.leq[jn, c] for c in ups)
            else:
                assert jn is None


def test_embedding_preserves_order(z2, z2_completion):
    comp = z2_completion
    space = z2.space
    for i in range(space.n):
        for j in range(space.n):
            assert bool(space.leq[i, j]) == \
                bool(comp.space.leq[comp.embed(i), comp.embed(j)])


@pytest.mark.parametrize("name", ["z2", "simplex3", "z2z2"])
def test_real_i_is_element_i(name, request):
    # embed, real_id and sharpening read this: the singletons, the reals
    # with the bottom, sort first and by id; every other element is hidden
    if name == "z2z2":
        comp = request.getfixturevalue("two_qubit")[1]
    elif name == "z2":
        comp = request.getfixturevalue("z2_completion")
    else:
        comp = build_completion(simplex_space(3))
    n = comp.base.space.n
    assert comp.elements[:n] == [(i,) for i in range(n)]
    assert all(len(u) > 1 for u in comp.elements[n:])
    assert [comp.embed(i) for i in range(n)] == list(range(n))
    assert [comp.real_id(k) for k in range(len(comp))] == \
        list(range(n)) + [None] * (len(comp) - n)
    assert [comp.is_hidden(k) for k in range(len(comp))] == \
        [False] * n + [True] * (len(comp) - n)


def test_admissibility_on_tensor_reals(two_qubit):
    ts, _ = two_qubit
    rs = ts.real_space
    rng = random.Random(11)
    others = [i for i in range(rs.space.n) if i != rs.space.bottom]
    for _ in range(50):
        sub = rng.sample(others, rng.randint(1, 4))
        if ontic.sharpen(rs, sub) is not None:
            assert is_star_free(rs, closure(rs.space, sub))


_SPACE = spin_space(3).space


_NONBOT = [i for i in range(_SPACE.n) if i != _SPACE.bottom]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_NONBOT), min_size=1, max_size=5))
def test_closure_idempotent_property(ids):
    first = closure(_SPACE, ids)
    assert closure(_SPACE, first) == first
    # extensivity up to domination by the closure antichain
    for i in ids:
        assert any(_SPACE.leq[i, m] for m in first)


def _least_upper_bound(space, ids):
    """Least common upper bound read off the order matrix, or None."""
    upper = [k for k in range(space.n) if all(space.leq[i, k] for i in ids)]
    least = [k for k in upper if all(space.leq[k, m] for m in upper)]
    return least[0] if least else None


def test_sharpening_is_the_least_upper_bound(z2):
    comp = build_completion(z2)
    reals = range(z2.space.n)
    for r in range(len(reals) + 1):
        for sub in combinations(reals, r):
            want = _least_upper_bound(comp.space,
                                      [comp.embed(i) for i in sub])
            assert comp.sharpening(sub) == want
            # numpy ints index the same tables
            assert comp.sharpening([np.int64(i) for i in sub]) == want


@pytest.mark.parametrize("make", [
    lambda: spin_space(3), lambda: simplex_space(3),
    lambda: build_tensor(spin_space(2), spin_space(2)).real_space,
], ids=["spin3", "simplex3", "z2z2"])
def test_sharpening_takes_raw_member_lists(make):
    # duplicates, the bottom, numpy ints, reals below other members and
    # iterators: the answer is the least upper bound of the embedded reals,
    # read off the completion's leq, and sharpen returns its antichain
    rs = make()
    space = rs.space
    comp = build_completion(rs)
    leq = comp.space.leq
    rng = random.Random(space.n)
    cases = [[], [space.bottom], [space.bottom, space.bottom]]
    for _ in range(300):
        sub = [rng.randrange(space.n) for _ in range(rng.randint(1, 5))]
        x = rng.choice(sub)
        sub.append(rng.choice([y for y in range(space.n)
                               if space.leq[y, x]]))
        cases.append(sub)
    verdicts = set()
    for sub in cases:
        upper = leq[[comp.embed(i) for i in sub]].all(axis=0)
        least = [k for k in np.flatnonzero(upper) if leq[k, upper].all()]
        want = int(least[0]) if least else None
        verdicts.add(want is None)
        for members in (sub, [np.int64(i) for i in sub]):
            assert comp.sharpening(members) == want, sub
            got = ontic.sharpen(rs, members)
            assert got == (None if want is None
                           else comp.components(want)), sub
        # a one-pass iterable is read once
        assert comp.sharpening(iter(sub)) == want, sub
    assert verdicts == {True, False}


# -- differential tests of the bitset order core against leq-only oracles ---

def _oracle_step(space, members):
    """One pre-closure step read off the order matrix: the maximal z that
    are the least upper bound of their trace (the elements below z and
    below some member)."""
    leq = space.leq
    below = leq[:, list(members)].any(axis=1)
    # trace[z, y]: y lies below z and below some member; k bounds the trace
    # of z unless a y of the trace is not below k, and z is the least upper
    # bound when it lies below every bound
    trace = (leq & below[:, None]).T.astype(np.float32)
    upper = (trace @ (~leq).astype(np.float32)) == 0
    fixed = ~(upper & ~leq).any(axis=1)
    strictly = leq & ~np.eye(space.n, dtype=bool)
    return tuple(int(z) for z in np.flatnonzero(
        fixed & ~(strictly & fixed).any(axis=1)))


def _oracle_closure(space, members):
    current = tuple(sorted(set(members)))
    for _ in range(space.n + 1):
        nxt = _oracle_step(space, current)
        if nxt == current:
            return current
        current = nxt
    raise AssertionError("oracle closure did not stabilize")


def _inclusion_space(family):
    """Subsets of {0..4} as 5-bit ints, closed under intersection and
    ordered by inclusion: a finite meet-semilattice with bottom."""
    closed = set(family)
    while True:
        more = {a & b for a in closed for b in closed} - closed
        if not more:
            break
        closed |= more
    elems = sorted(closed)
    leq = np.array([[a & ~b == 0 for b in elems] for a in elems])
    return StateSpace(["s%d" % a for a in elems], row_masks(leq))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 31), min_size=1, max_size=7, unique=True),
       st.data())
def test_closure_step_matches_oracle_on_intersection_families(family, data):
    space = _inclusion_space(family)
    others = [i for i in range(space.n) if i != space.bottom]
    assume(others)
    members = data.draw(st.lists(st.sampled_from(others), min_size=1,
                                 max_size=4, unique=True))
    assert closure_step(space, members) == _oracle_step(space, members)
    assert closure(space, members) == _oracle_closure(space, members)


def test_closure_step_matches_oracle_on_every_counterexample_subset():
    space = counterexample_lattice()
    others = [i for i in range(space.n) if i != space.bottom]
    for r in range(1, len(others) + 1):
        for sub in combinations(others, r):
            assert closure_step(space, sub) == _oracle_step(space, sub)


def test_closure_step_matches_oracle_on_tensor_subsets(two_qubit):
    ts, _ = two_qubit
    space = ts.space
    others = [i for i in range(space.n) if i != space.bottom]
    rng = random.Random(20)
    for _ in range(500):
        sub = rng.sample(others, rng.randint(1, 6))
        assert closure_step(space, sub) == _oracle_step(space, sub)


def _scan_stepper(space):
    """The pre-closure step as a top-down scan, one element and one cover
    gap at a time, with no memo: z is fixed when the input's down-set meets
    every gap down[z] & ~down[c] of an element c that z covers, and a fixed
    z below a fixed element found earlier is skipped."""
    down = space.down
    gaps = [[down[z] & ~down[c] for c in range(space.n)
             if space.covers[c] >> z & 1] for z in range(space.n)]
    top_down = sorted(range(space.n), key=lambda z: -down[z].bit_count())

    def step(members):
        below = 0
        for u in members:
            below |= down[u]
        covered = 0
        found = []
        for z in top_down:
            if covered >> z & 1:
                continue
            if all(below & g for g in gaps[z]):
                found.append(z)
                covered |= down[z]
        return tuple(sorted(found))
    return step


_STEP_SPACES = {
    "spin2": lambda: spin_space(2).space,
    "spin3": lambda: spin_space(3).space,
    "spin4": lambda: spin_space(4).space,
    "simplex2": lambda: simplex_space(2).space,
    "simplex3": lambda: simplex_space(3).space,
    "simplex4": lambda: simplex_space(4).space,
    "counterexample": counterexample_lattice,
    "z2z2": lambda: build_tensor(spin_space(2), spin_space(2)).space,
    "z3z2": lambda: build_tensor(spin_space(3), spin_space(2)).space,
}


@pytest.mark.parametrize("name", sorted(_STEP_SPACES))
def test_closure_step_matches_scan(name):
    # a fresh space, so that the first call builds the tables
    space = _STEP_SPACES[name]()
    scan = _scan_stepper(space)
    bottom = space.bottom
    assert closure_step(space, [bottom]) == (bottom,) == scan([bottom])
    inputs = [[u] for u in range(space.n)]
    inputs += [[bottom, u] for u in range(space.n)]
    rng = random.Random(8)
    for _ in range(400):
        inputs.append(rng.sample(range(space.n),
                                 rng.randint(1, min(6, space.n))))
    for members in inputs:
        assert closure_step(space, members) == scan(members), members
        # the second call reuses the tables, with the same answer
        assert closure_step(space, members) == scan(members), members


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 31), min_size=1, max_size=7, unique=True),
       st.data())
def test_closure_step_matches_scan_on_intersection_families(family, data):
    # members are drawn from every element, the bottom included
    space = _inclusion_space(family)
    members = data.draw(st.lists(st.sampled_from(range(space.n)),
                                 min_size=1, max_size=4, unique=True))
    want = _scan_stepper(space)(members)
    assert closure_step(space, members) == want
    assert want == _oracle_step(space, members)


def _dense_step_tables(space):
    """The tables of ontic._step_tables by a float32 product over the dense
    order: the gap of each cover pair as a row over the elements, times the
    order matrix, gives the pairs whose gap meets each down-set."""
    n = space.n
    leq = space.leq
    lower = [[] for _ in range(n)]
    for c, row in enumerate(space.covers):
        for z in bits(row):
            lower[z].append(c)
    order = sorted((z for z in range(n) if lower[z]),
                   key=lambda z: space.down[z].bit_count())
    tops, bottoms, columns, guard_at = [], [], [], []
    blocks = lows = guards = width = 0
    owner = {}
    for z in order:
        k = len(lower[z])
        tops += [z] * k
        bottoms += lower[z]
        columns += range(width, width + k)
        lows |= 1 << width
        blocks |= ((1 << k) - 1) << width
        width += k
        guards |= 1 << width
        guard_at.append(width)
        width += 1
        owner[width] = z
    gap = (leq[:, tops] & ~leq[:, bottoms]).T.astype(np.float32)
    met = np.zeros((n, width), dtype=bool)
    met[:, columns] = ((gap @ leq.astype(np.float32)) > 0).T
    below = np.zeros((n, width), dtype=bool)
    below[:, guard_at] = leq[order].T
    keep = [guards & ~m for m in row_masks(below)]
    return row_masks(met), blocks, lows, guards, owner, keep


_TABLE_SPACES = dict(
    _STEP_SPACES, bool=bool_space,
    **{"z2z2-completion": lambda: build_completion(
        build_tensor(spin_space(2), spin_space(2)).real_space).space})


@pytest.mark.parametrize("name", sorted(_TABLE_SPACES))
def test_step_tables_match_dense_product(name):
    space = _TABLE_SPACES[name]()
    assert ontic._step_tables(space) == _dense_step_tables(space)


_INDEX_SPACES = {
    "spin2": lambda: spin_space(2),
    "spin3": lambda: spin_space(3),
    "simplex3": lambda: simplex_space(3),
    "z2z2": lambda: build_tensor(spin_space(2), spin_space(2)).real_space,
}


def _index_inputs(name):
    """A completed space and the closure inputs of the differential test:
    the bottom alone and every set of reals on the small spaces; the bottom
    alone, every 1- and 2-member set of reals and 2,000 seeded random
    1-6-member sets on Z2xZ2.  Every closed set is the closure of one of
    them."""
    rs = _INDEX_SPACES[name]()
    build_completion(rs)
    space = rs.space
    others = [i for i in range(space.n) if i != space.bottom]
    sizes = (1, 2) if name == "z2z2" else range(1, len(others) + 1)
    inputs = [(space.bottom,)] + [sub for r in sizes
                                  for sub in combinations(others, r)]
    if name == "z2z2":
        rng = random.Random(21)
        inputs += [rng.sample(others, rng.randint(1, 6)) for _ in range(2000)]
    return space, inputs


@pytest.mark.parametrize("name", sorted(_INDEX_SPACES))
def test_index_closure_matches_steps_and_oracle(name):
    space, inputs = _index_inputs(name)
    assert space._closed is not None
    for sub in inputs:
        want = closure_by_steps(space, sub)
        assert closure(space, sub) == want == _oracle_closure(space, sub), sub


_CONTRACT_SPACES = {
    "completed": lambda: build_completion(
        build_tensor(spin_space(2), spin_space(2)).real_space).base.space,
    "plain": lambda: build_tensor(spin_space(2), spin_space(2)).space,
}


@pytest.mark.parametrize("name", sorted(_CONTRACT_SPACES))
def test_closure_input_contract(name):
    # the index read checks its input as the steps do, on any iterable of
    # ints or numpy ints, and reads a generator once
    space = _CONTRACT_SPACES[name]()
    assert (space._closed is not None) == (name == "completed")
    bottom = space.bottom
    others = [i for i in range(space.n) if i != bottom]
    with pytest.raises(InputError, match="closure of an empty set"):
        closure(space, [])
    with pytest.raises(InputError, match="closure of an empty set"):
        closure(space, iter(()))
    for bad in ([bottom, others[0]], [others[5], others[2], bottom],
                np.array([others[3], bottom])):
        with pytest.raises(InputError, match="bottom element inside"):
            closure(space, bad)
    # ids out of range, where a negative one must not read from the end
    for bad in ([-1], [-1, 3], [space.n], [3, space.n], np.array([-1, 3])):
        with pytest.raises(InputError, match="out of range"):
            closure(space, bad)
    assert closure(space, [bottom]) == closure(space, [bottom, bottom]) \
        == closure(space, np.array([bottom])) == (bottom,)
    rng = random.Random(26)
    for _ in range(200):
        sub = rng.sample(others, rng.randint(1, 5))
        want = closure_by_steps(space, sorted(sub))
        assert closure(space, sub) == want, sub
        assert closure(space, sub[::-1] + sub) == want, sub
        assert closure(space, (m for m in sub)) == want, sub
        assert closure(space, np.array(sub, dtype=np.int64)) == want, sub
        assert closure(space, [np.int32(m) for m in sub]) == want, sub


def _keys_of(space, antichains):
    """The down mask of each antichain."""
    keys = []
    for anti in antichains:
        key = 0
        for x in anti:
            key |= space.down[x]
        keys.append(key)
    return keys


@pytest.mark.parametrize("name", sorted(_INDEX_SPACES))
def test_dropping_a_closed_set_fails_the_differential_test(name):
    # each indexed set in turn is taken out of every real's row.  An input
    # whose closure it is then reads a larger indexed set, unless none
    # holds it: then the AND is 0 and closure takes the steps, so dropping
    # a maximal set of the index changes no answer
    space, inputs = _index_inputs(name)
    want = [closure_by_steps(space, sub) for sub in inputs]
    rows, antichains = space._closed
    keys = _keys_of(space, antichains)
    for k, key in enumerate(keys):
        inside = any(key & ~other == 0 for other in keys[:k] + keys[k + 1:])
        space._closed = [r & ~(1 << k) for r in rows], antichains
        got = [closure(space, sub) for sub in inputs]
        assert (got != want) == inside, k
    space._closed = rows, antichains
    assert [closure(space, sub) for sub in inputs] == want


@pytest.mark.parametrize("make, indexed, admissible, candidates", [
    (lambda: build_tensor(spin_space(2), spin_space(2)).real_space,
     234, 217, 850),
    (lambda: build_tensor(spin_space(3), spin_space(2)).real_space,
     1080, 1031, 4870),
    (lambda: spin_space(2), 16, 9, 15),
    (lambda: spin_space(3), 27, 27, 54),
    (lambda: simplex_space(4), 16, 15, 15),
], ids=["z2z2", "z3z2", "spin2", "spin3", "simplex4"])
def test_closed_set_index_counts(make, indexed, admissible, candidates):
    # all closed sets, or the elements alone on spin(3), whose 64 closed
    # sets hold 37 inadmissible ones; by size either way.  The candidates
    # are the closures of the Close-by-One walk: a walk that lists a set
    # twice, or drops one, closes more or fewer
    rs = make()
    comp = build_completion(rs)
    keys = _keys_of(rs.space, rs.space._closed[1])
    assert (len(keys), len(comp)) == (indexed, admissible)
    assert comp.candidates == candidates
    assert keys == sorted(keys, key=int.bit_count)
    assert set(comp._keys) <= set(keys)
    assert (set(keys) == set(comp._keys)) == (indexed == admissible)


def test_spin9_search_stays_under_the_default_cap():
    # spin(n) is flat: every set of reals is closed, so each closure lists
    # one, and the admissible ones are the 3^n sets of axes with no star
    # pair.  The walks list the 3^n - 1 above the bottom, then inadmissible
    # sets until those outnumber the elements, 3^n + 1 of them, and stop:
    # the 4^n closed sets are not listed
    found, over, candidates = ontic._closed_sets(spin_space(9),
                                                 ontic.CANDIDATE_CAP)
    assert (len(found), over) == (3 ** 9, None)
    assert candidates == (3 ** 9 - 1) + (3 ** 9 + 1) == 39366


def test_real_space_keeps_no_more_entries_than_closed_sets():
    # the index is the one thing a build leaves on the real space, and it
    # holds one row per real and one antichain per indexed set; no memo of
    # steps or joins outlives the build
    rs = build_tensor(spin_space(2), spin_space(2)).real_space
    build_completion(rs)
    bound = len(rs.space._closed[1])
    sizes = []
    for value in vars(rs.space).values():
        for part in (value,) + (value if isinstance(value, tuple) else ()):
            if isinstance(part, (dict, list, tuple, set, frozenset)):
                sizes.append(len(part))
    assert bound == 234 and 0 < max(sizes) <= bound


class _RefusedIndex(object):
    """A closed-set index that fails on any read."""

    def _refuse(self, *args):
        raise AssertionError("an oracle read the closed-set index")

    __getattr__ = __getitem__ = __iter__ = __len__ = _refuse


def test_oracles_read_no_closed_set_index(monkeypatch):
    # every space's index reads as one that refuses, while a build still
    # stores its own
    monkeypatch.setattr(
        StateSpace, "_closed",
        property(lambda self: _RefusedIndex(),
                 lambda self, value: self.__dict__.update(_closed=value)),
        raising=False)
    rs = spin_space(3)
    comp = build_completion(rs)
    with pytest.raises(AssertionError, match="closed-set index"):
        closure(rs.space, [0])
    for check in (verify.check_closure_idempotency,
                  verify.check_completion_z2,
                  verify.check_non_completeness):
        assert check()["pass"] is True, check.__name__
    element_of = {u: k for k, u in enumerate(comp.elements)}
    for i in range(len(comp)):
        for j in range(len(comp)):
            assert _joined_by_closure(comp, element_of, comp.elements[i]
                                      + comp.elements[j]) == comp.join(i, j)
    others = [i for i in range(rs.space.n) if i != rs.space.bottom]
    for sub in combinations(others, 2):
        assert _oracle_closure(rs.space, sub) == \
            closure_by_steps(rs.space, sub)
        assert _oracle_step(rs.space, sub) == closure_step(rs.space, sub)


@pytest.mark.parametrize("rs", [spin_space(2), spin_space(3),
                                simplex_space(3)], ids=["spin2", "spin3",
                                                        "simplex3"])
def test_completion_matches_brute_force_antichains(rs):
    space = rs.space
    leq = space.leq
    others = [i for i in range(space.n) if i != space.bottom]
    want = {(space.bottom,)}
    for r in range(1, len(others) + 1):
        for sub in combinations(others, r):
            if any(leq[x, y] for x in sub for y in sub if x != y):
                continue
            if any(leq[rs.star_of(x), y] for x in sub for y in sub):
                continue
            if _oracle_closure(space, sub) == sub:
                want.add(sub)
    comp = build_completion(rs)
    assert set(comp.elements) == want
    for i, u in enumerate(comp.elements):
        for j, v in enumerate(comp.elements):
            below = all(any(leq[x, y] for y in v) for x in u)
            assert bool(comp.space.leq[i, j]) == below


def _reference_completion(rs):
    """The completion as a breadth-first search over admissible unions:
    every union of an element and a real not below it is closed by the
    steps and tested with is_star_free.  Returns the elements in the
    completion's order and the join memo, from the union's down-set (read
    off leq) to the closed down-set, or None when the union is
    inadmissible."""
    space = rs.space
    down = [sum(1 << y for y in range(space.n) if space.leq[y, x])
            for x in range(space.n)]

    def down_of(members):
        out = 0
        for x in members:
            out |= down[x]
        return out

    singles = [(i,) for i in range(space.n) if i != space.bottom]
    elements = {(space.bottom,)} | set(singles)
    joins = {}
    # closed down-set -> its antichain
    closed = {}
    frontier = singles
    while frontier:
        fresh = []
        for u in frontier:
            for s in singles:
                if any(space.leq[s[0], x] for x in u):
                    continue
                merged = tuple(sorted(set(u) | set(s)))
                below = down_of(merged)
                if below not in joins:
                    out = closure_by_steps(space, merged)
                    joins[below] = None
                    if is_star_free(rs, out):
                        joins[below] = down_of(out)
                        closed[joins[below]] = out
                j = joins[below]
                if j is None:
                    continue
                anti = closed[j]
                if anti not in elements:
                    elements.add(anti)
                    fresh.append(anti)
        frontier = fresh
    return sorted(elements, key=lambda u: (len(u), u)), joins


@pytest.mark.parametrize("make", [
    lambda: spin_space(2), lambda: spin_space(3), lambda: spin_space(4),
    lambda: simplex_space(3),
    lambda: build_tensor(spin_space(2), spin_space(2)).real_space,
    lambda: build_tensor(spin_space(2), bool_real_space()).real_space,
    lambda: build_tensor(spin_space(3), bool_real_space()).real_space,
], ids=["spin2", "spin3", "spin4", "simplex3", "z2z2", "z2bool", "z3bool"])
def test_pair_pruning_matches_unpruned_search(make):
    rs = make()
    comp = build_completion(rs)
    # a second copy of the space, which has no closed-set index
    elements, joins = _reference_completion(make())
    assert comp.elements == elements
    # every union the reference closed reads, off the built order, as the
    # element keyed by its closed down-set, or None when it is inadmissible
    element_of = {d: k for k, d in enumerate(comp._keys)}
    for below, closed in joins.items():
        want = None if closed is None else element_of[closed]
        assert comp.sharpening(bits(below)) == want
    # u <= v when the down-set of u is inside the down-set of v
    leq = rs.space.leq
    down = np.array([leq[:, list(u)].any(axis=1) for u in elements])
    want = ~(down[:, None, :] & ~down[None, :, :]).any(axis=2)
    assert np.array_equal(comp.space.leq, want)


def _shuffled(rs, seed):
    """A copy of a real space with its ids permuted under a seed, built from
    its order relation by name."""
    space = rs.space
    perm = list(range(space.n))
    random.Random(seed).shuffle(perm)  # new id j is old id perm[j]
    new_of = {old: j for j, old in enumerate(perm)}
    pairs = [(space.names[x], space.names[y]) for x in range(space.n)
             for y in bits(space.up[x])]
    shuffled = StateSpace.from_relation([space.names[i] for i in perm], pairs)
    return RealSpace(shuffled, {new_of[x]: new_of[y]
                                for x, y in rs.star.items()})


@pytest.mark.parametrize("make", [
    lambda: spin_space(3),
    lambda: build_tensor(spin_space(2), spin_space(2)).real_space,
], ids=["spin3", "z2z2"])
def test_completion_does_not_read_id_order(make):
    # every space built by the library numbers its reals top down; in a
    # shuffled copy, ids are neither a linear extension nor its reverse,
    # and the completion and its index are the same up to the relabelling
    rs = make()
    comp = build_completion(rs)
    shuffled = _shuffled(make(), 27)
    up = shuffled.space.up
    assert any(up[x] >> y & 1 for x in range(len(up)) for y in range(x))
    assert any(up[y] >> x & 1 for x in range(len(up)) for y in range(x))
    got = build_completion(shuffled)
    elements, _ = _reference_completion(_shuffled(make(), 27))
    assert got.elements == elements

    def named(space, antichains):
        return sorted(sorted(space.names[x] for x in u) for u in antichains)

    assert named(shuffled.space, got.elements) == named(rs.space,
                                                        comp.elements)
    assert named(shuffled.space, shuffled.space._closed[1]) == \
        named(rs.space, rs.space._closed[1])


def _by_steps(space, members):
    """closure_step iterated on sorted tuples until one repeats."""
    current = tuple(sorted(set(members)))
    nxt = closure_step(space, current)
    while nxt != current:
        current, nxt = nxt, closure_step(space, nxt)
    return current


def _full_scan_closed_sets(rs, cap, admissible=is_star_free):
    """_closed_sets as it was before the frontier and the early stop: each
    node scans every real after its s0 and outside its set, and closes each
    candidate to the end by closure_step before the canonicity test."""
    real = rs.space
    down, bottom = real.down, real.bottom
    full, before = (1 << real.n) - 1, 0
    earlier = [0] * real.n
    for s in sorted(range(real.n), key=lambda s: down[s].bit_count()):
        earlier[s] = before
        before |= 1 << s
    found, over = {down[bottom]: (bottom,)}, {}
    stack, roots, candidates = [(down[bottom], (), bottom)], [], 0
    for part in found, over:
        while stack:
            d, anti, s0 = stack.pop()
            for s in bits(full & ~earlier[s0] & ~d):
                if down[s] & ~d != 1 << s:
                    continue
                if candidates == cap or (part is over
                                         and len(over) > len(found)):
                    if part is found:
                        raise CapExceeded("cap")
                    return found, None, candidates
                candidates += 1
                j = _by_steps(real, anti + (s,))
                key = 0
                for x in j:
                    key |= down[x]
                if key & ~d & earlier[s]:
                    continue
                home = found if part is found and admissible(rs, j) else over
                home[key] = j
                (roots if home is not part else stack).append((key, j, s))
        stack = roots
    return found, over, candidates


@pytest.mark.parametrize("make, caps", [
    (lambda: spin_space(2), (ontic.CANDIDATE_CAP, 11, 12, 13, 14, 15)),
    (lambda: spin_space(3), (ontic.CANDIDATE_CAP,)),
    (lambda: simplex_space(3), (ontic.CANDIDATE_CAP,)),
    (lambda: build_tensor(spin_space(2), spin_space(2)).real_space,
     (ontic.CANDIDATE_CAP,)),
    (lambda: build_tensor(spin_space(3), spin_space(2)).real_space,
     (ontic.CANDIDATE_CAP,)),
    (lambda: _shuffled(spin_space(3), 27), (ontic.CANDIDATE_CAP,)),
    (lambda: _shuffled(build_tensor(spin_space(2), spin_space(2))
                       .real_space, 27), (ontic.CANDIDATE_CAP,)),
], ids=["spin2", "spin3", "simplex3", "z2z2", "z3z2", "spin3-shuffled",
        "z2z2-shuffled"])
def test_frontier_walk_matches_full_scan(make, caps):
    # the frontier scan and the early stop skip only candidates the full
    # scan drops, so the sets, their order, the split at an inadmissible
    # set and the candidate count are the same, cap or no cap
    for cap in caps:
        outcomes = []
        for walk in (ontic._closed_sets, _full_scan_closed_sets):
            try:
                found, over, candidates = walk(make(), cap)
            except CapExceeded:
                outcomes.append("cap")
            else:
                outcomes.append((list(found.items()), over and
                                 list(over.items()), candidates))
        assert outcomes[0] == outcomes[1], cap
        assert (outcomes[0] == "cap") == (cap == 11)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 31), min_size=1, max_size=7, unique=True))
def test_frontier_walk_matches_full_scan_on_intersection_families(family):
    # with every set admissible, both walks list every closed set of a
    # meet-semilattice; in these, unlike the real spaces above, a real
    # minimal outside a closed set need not be an atom, so a frontier that
    # stopped growing would miss sets
    rs = SimpleNamespace(space=_inclusion_space(family))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ontic, "is_star_free", lambda rs, members: True)
        got = ontic._closed_sets(rs, ontic.CANDIDATE_CAP)
    want = _full_scan_closed_sets(rs, ontic.CANDIDATE_CAP,
                                  admissible=lambda rs, members: True)
    assert (list(got[0].items()), got[1:]) == (list(want[0].items()),
                                               want[1:])


def test_early_stop_meets_the_stop_mask_only_when_the_closure_does():
    # _close, the loop behind closure_by_steps, gives the closure that the
    # repeated steps reach, and gives up only when its down-set meets stop
    rs = build_tensor(spin_space(2), spin_space(2)).real_space
    space = rs.space
    rng = random.Random(5)
    reals = [i for i in range(space.n) if i != space.bottom]
    stopped = 0
    for _ in range(300):
        members = rng.sample(reals, rng.randint(1, 3))
        anti = _by_steps(space, members)
        assert closure_by_steps(space, members) == anti
        key = 0
        for x in anti:
            key |= space.down[x]
        assert ontic._close(space, sorted(members)) == anti
        stop = 1 << rng.randrange(space.n)
        got = ontic._close(space, sorted(members), stop)
        assert got == (None if key & stop else anti)
        stopped += got is None
    assert 0 < stopped < 300


def test_candidate_cap_counts_pruned_candidates():
    # spin(2) takes 12 candidates, one closure started each, to list its 9
    # elements, and 3 more to index its 7 other closed sets.  A cap that
    # stops the second walk leaves the admissible sets alone as the index;
    # one that stops the first raises, as a negative one does
    for cap, indexed in ((15, 16), (14, 9), (12, 9)):
        rs = spin_space(2)
        comp = build_completion(rs, cap=cap)
        assert (len(comp), comp.candidates) == (9, cap)
        assert len(rs.space._closed[1]) == indexed
    for cap in (11, -1):
        with pytest.raises(CapExceeded):
            build_completion(spin_space(2), cap=cap)


def test_candidate_cap_defaults_read_one_constant():
    # the library builders and the CLI verbs that build a completion
    from qlattice import cli, tensor
    builders = (ontic.OnticCompletion, build_completion,
                tensor.indeterministic_tensor)
    defaults = [inspect.signature(f).parameters["cap"].default
                for f in builders]
    parser = cli.make_parser()
    defaults += [parser.parse_args(argv).cap_elements
                 for argv in (["complete", "--kind", "bool"], ["geometry"])]
    assert defaults == [ontic.CANDIDATE_CAP] * 5
    assert ontic.CANDIDATE_CAP == 10 ** 6


def _joined_by_closure(comp, element_of, members):
    """The element whose antichain ontic.sharpen would give the members, or
    None: the join by the steps of the closure on the reals, not by the
    completion's order or the closed-set index.  element_of maps each
    antichain of comp.elements to its id."""
    members = [m for m in members if m != comp.base.space.bottom]
    if not members:
        return element_of[(comp.base.space.bottom,)]
    anti = closure_by_steps(comp.base.space, members)
    return element_of[anti] if is_star_free(comp.base, anti) else None


@pytest.mark.parametrize("make", [
    lambda: spin_space(2), lambda: spin_space(3), lambda: simplex_space(3),
    lambda: build_tensor(spin_space(2), spin_space(2)).real_space,
], ids=["spin2", "spin3", "simplex3", "z2z2"])
def test_join_matches_the_closure_on_every_pair(make):
    comp = build_completion(make())
    n = len(comp)
    element_of = {u: k for k, u in enumerate(comp.elements)}
    for i in range(n):
        for j in range(n):
            want = _joined_by_closure(comp, element_of,
                                      comp.elements[i] + comp.elements[j])
            assert comp.join(i, j) == want, (i, j)


def test_reads_run_no_closure_and_keep_no_join_memo(monkeypatch):
    ts = build_tensor(spin_space(2), spin_space(2))
    rs = ts.real_space
    comp = build_completion(rs)
    rng = random.Random(3)
    reals = range(rs.space.n)
    cases = [rng.sample(reals, rng.randint(1, 4)) for _ in range(200)]
    pairs = [(rng.randrange(len(comp)), rng.randrange(len(comp)))
             for _ in range(200)]
    gens = [rng.sample(ts.pure_pairs, rng.randint(1, 3)) for _ in range(200)]
    element_of = {u: k for k, u in enumerate(comp.elements)}
    want = ([_joined_by_closure(comp, element_of, c) for c in cases],
            [_joined_by_closure(comp, element_of,
                                comp.elements[i] + comp.elements[j])
             for i, j in pairs],
            [ts._cover_index[ts.normalize(g)] for g in gens])
    assert {None} < set(want[0]) and {None} < set(want[1])

    def refuse(*args, **kwargs):
        raise AssertionError("a read ran the build's machinery")

    for name in ("closure", "closure_step", "sharpen"):
        monkeypatch.setattr(ontic, name, refuse)
    monkeypatch.setattr(type(ts), "_expand", refuse)
    monkeypatch.setattr(type(ts), "normalize", refuse)
    got = ([comp.sharpening(c) for c in cases],
           [comp.join(i, j) for i, j in pairs],
           [ts.index_of(g) for g in gens])
    assert got == want
    # no attribute keeps more entries than there are elements, as a join
    # memo would (tens of thousands of unions here)
    assert max(len(v) for v in vars(comp).values()
               if isinstance(v, (dict, list))) == len(comp)
