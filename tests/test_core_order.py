import functools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qlattice.core_order import (YES, NO, BOT, BOOL_VALUES, InputError,
                                 OUTCOME_MASK, StateSpace, _peeled_covers,
                                 bool_space, bool_bullet, bits,
                                 inclusion_order, transpose, unpack_masks)
from qlattice.realspaces import bool_real_space, spin_space, simplex_space
from qlattice.tensor import build_tensor, indeterministic_tensor

from order_reference import row_masks
from test_ontic import _inclusion_space


def test_meet_table():
    expect = {
        (YES, YES): YES, (YES, NO): BOT, (YES, BOT): BOT,
        (NO, YES): BOT, (NO, NO): NO, (NO, BOT): BOT,
        (BOT, YES): BOT, (BOT, NO): BOT, (BOT, BOT): BOT,
    }
    space = bool_space()
    for (x, y), value in expect.items():
        assert space.meet(x, y) == value
        # outcomes meet by the union of their possibilities
        assert OUTCOME_MASK[value] == OUTCOME_MASK[x] | OUTCOME_MASK[y]


def test_bullet_table():
    expect = {
        (YES, YES): YES, (YES, NO): NO, (YES, BOT): BOT,
        (NO, YES): NO, (NO, NO): NO, (NO, BOT): NO,
        (BOT, YES): BOT, (BOT, NO): NO, (BOT, BOT): BOT,
    }
    for pair, value in expect.items():
        assert bool_bullet(*pair) == value


def test_bar_table():
    # bar is the star of the boolean real space, with the bottom fixed
    star = bool_real_space().star

    def bar(x):
        return star.get(x, x)

    assert bar(YES) == NO
    assert bar(NO) == YES
    assert bar(BOT) == BOT
    assert BOT not in star
    for x in BOOL_VALUES:
        assert bar(bar(x)) == x


def test_join_partiality():
    space = bool_space()
    assert space.join(YES, NO) is None
    assert space.join(BOT, NO) == NO
    assert space.join(YES, YES) == YES


def test_bullet_monoid_laws():
    for x in BOOL_VALUES:
        assert bool_bullet(YES, x) == x
        assert bool_bullet(NO, x) == NO
        for y in BOOL_VALUES:
            assert bool_bullet(x, y) == bool_bullet(y, x)
            for z in BOOL_VALUES:
                assert bool_bullet(bool_bullet(x, y), z) == \
                    bool_bullet(x, bool_bullet(y, z))


def test_meet_all_and_bullet_all():
    space = bool_space()
    assert space.meet_all([YES, YES]) == YES
    assert space.meet_all([YES, NO, YES]) == BOT
    # the bullet fold starts from its unit Y, and N absorbs
    assert functools.reduce(bool_bullet, [], YES) == YES
    assert functools.reduce(bool_bullet, [YES, BOT, NO], YES) == NO


def test_bool_space_shape():
    space = bool_space()
    assert space.n == 3
    assert [space.names[x] for x in BOOL_VALUES] == ["Y", "N", "BOT"]
    bot = space.bottom
    assert bot == BOT
    assert all(space.leq[bot, i] for i in range(3))
    assert len(space.pures()) == 2


def test_from_relation_rejects_missing_meet():
    # two tops over two incomparable mids: meet(a, b) is not unique
    names = ["bot", "x", "y", "a", "b"]
    pairs = [("bot", "x"), ("bot", "y"),
             ("x", "a"), ("x", "b"), ("y", "a"), ("y", "b")]
    with pytest.raises(InputError, match="no meet for 'a', 'b'"):
        StateSpace.from_relation(names, pairs)


def test_from_relation_rejects_bowtie_under_a_top():
    # bounded above and below, and a, b still have two maximal common lower
    # bounds: the input no construction vouches for keeps the meet scan
    names = ["bot", "x", "y", "a", "b", "top"]
    pairs = [("bot", "x"), ("bot", "y"), ("x", "a"), ("x", "b"),
             ("y", "a"), ("y", "b"), ("a", "top"), ("b", "top")]
    with pytest.raises(InputError, match="no meet for 'a', 'b'"):
        StateSpace.from_relation(names, pairs)
    with pytest.raises(InputError, match="no meet for 'a', 'b'"):
        StateSpace.from_json({"elements": names, "leq": pairs})


def test_from_keys_skips_the_meet_scan_alone(monkeypatch):
    # the bowtie as down-sets: {a, b} meet in no key.  The tests scan every
    # space from_keys builds (conftest), so it fails here; from_keys itself
    # builds it, and the scan it skipped still finds the pair
    keys = [0b000001, 0b000011, 0b000101, 0b001111, 0b010111, 0b111111]
    names = ["bot", "x", "y", "a", "b", "top"]
    with pytest.raises(InputError, match="no meet for 'a', 'b'"):
        StateSpace.from_keys(names, keys)
    monkeypatch.setattr(StateSpace, "from_keys", classmethod(
        StateSpace.from_keys.__func__.__wrapped__))
    space = StateSpace.from_keys(names, keys)
    assert space.up == inclusion_order(keys)
    assert space.down == transpose(space.up, space.n)
    with pytest.raises(InputError, match="no meet for 'a', 'b'"):
        StateSpace(names, space.up)
    with pytest.raises(InputError, match="no meet for 'a', 'b'"):
        space._validate()
    # reverse inclusion is inclusion of the complements
    flipped = StateSpace.from_keys(names, [0b111111 ^ k for k in keys],
                                   reverse=True)
    assert flipped.up == space.up
    assert flipped.down == transpose(flipped.up, flipped.n)
    # the order axioms and the bottom are still checked
    with pytest.raises(InputError, match="antisymmetry fails for 'x', 'y'"):
        StateSpace.from_keys(names[:3], [0b01, 0b11, 0b11])
    with pytest.raises(InputError, match="no bottom element"):
        StateSpace.from_keys(names[:2], [0b01, 0b10])


def test_from_keys_takes_either_side_by_bit_count(two_qubit):
    # the far side of the order is the transpose of the near one, or the
    # inclusion of the complemented keys when those have fewer bits; the
    # dense simplex square takes the complements, the rest the transpose
    ts, comp = two_qubit
    square = build_tensor(simplex_space(3), simplex_space(3))
    complemented = []
    for keys, reverse in ((ts._covers, True), (square._covers, True),
                          (comp._keys, False)):
        space = StateSpace.from_keys(range(len(keys)), keys, reverse)
        near = inclusion_order(keys)
        width = max(keys).bit_length()
        if len(keys) * width - sum(map(int.bit_count, keys)) \
                < sum(map(int.bit_count, near)):
            complemented.append(len(keys))
        want = transpose(near, len(keys)) if reverse else near
        assert (space.up, space.down) == (want, transpose(want, len(keys)))
    assert complemented == [511]


def _relabelled(space, order):
    """The space with new id k for old id order[k], built from its up-sets
    by StateSpace, and its covers read back in the old ids."""
    new_of = {old: k for k, old in enumerate(order)}
    up = [sum(1 << new_of[j] for j in bits(space.up[old])) for old in order]
    again = StateSpace([space.names[i] for i in order], up)
    covers = [0] * space.n
    for k, old in enumerate(order):
        covers[old] = sum(1 << order[j] for j in bits(again.covers[k]))
    return up, tuple(covers)


def test_peeled_covers_match_scanned_covers(two_qubit):
    # the peel runs where ids run top down, as in a tensor, and the scan
    # elsewhere, as in a completion.  Each space relabelled to take the
    # other path, top down by down-set size or shuffled, has the same covers
    ts, comp = two_qubit
    assert _peeled_covers(ts.space.up) == list(ts.space.covers)
    assert _peeled_covers(comp.space.up) is None
    rng = random.Random(6)
    for space in (ts.space, simplex_space(3).space, comp.space):
        top_down = sorted(range(space.n), key=lambda i: -space.down[i]
                          .bit_count())
        shuffled = rng.sample(range(space.n), space.n)
        for order, peeled in ((top_down, True), (shuffled, False)):
            up, covers = _relabelled(space, order)
            assert (_peeled_covers(up) is not None) == peeled
            assert covers == space.covers


def test_planted_transitivity_failure_names_the_scanned_pair():
    # an id-ordered order with one bit dropped from an up-set, away from
    # its covers, fails transitivity: the peel sees it, and the error is
    # the scan's, which the dense oracle names too
    rng = random.Random(4)
    space = build_tensor(spin_space(2), spin_space(2)).space
    names = ["e%d" % i for i in range(space.n)]
    rows = [i for i in range(space.n)
            if space.up[i] & ~space.covers[i] & ~(1 << i)]
    assert len(rows) > 10
    for i in rows:
        far = space.up[i] & ~space.covers[i] & ~(1 << i)
        up = list(space.up)
        up[i] ^= 1 << rng.choice(bits(far))
        assert _peeled_covers(up) is None
        want = _oracle_validation_error(unpack_masks(up, space.n))
        assert want.startswith("transitivity fails")
        with pytest.raises(InputError) as err:
            StateSpace(names, up)
        assert str(err.value) == want


def test_built_spaces_get_the_meet_scan(meet_scanned):
    before = len(meet_scanned)
    ts, comp = indeterministic_tensor(spin_space(2), spin_space(2))
    assert meet_scanned[before:] == [len(ts), len(comp)] == [113, 217]


def test_from_relation_rejects_missing_bottom():
    with pytest.raises(InputError):
        StateSpace.from_relation(["a", "b"], [])


def test_covers_and_pures():
    space = simplex_space(3).space
    assert len(space.pures()) == 3
    for p in space.pures():
        assert not bits(space.covers[p])
    bot = space.bottom
    for i in range(space.n):
        if i != bot:
            assert space.leq[bot, i]


def test_json_roundtrip():
    space = spin_space(2).space
    again = StateSpace.from_json(space.to_json())
    assert list(again.names) == list(space.names)
    assert (again.leq == space.leq).all()


def test_dot_export_mentions_all_names():
    space = bool_space()
    dot = space.to_dot()
    assert dot.startswith("digraph")
    for name in space.names:
        assert name in dot


_SPACE = spin_space(3).space


@settings(max_examples=200, deadline=None)
@given(st.integers(0, _SPACE.n - 1), st.integers(0, _SPACE.n - 1),
       st.integers(0, _SPACE.n - 1))
def test_meet_is_semilattice(i, j, k):
    m = _SPACE.meet(i, j)
    assert _SPACE.meet(j, i) == m
    assert _SPACE.meet(i, i) == i
    assert _SPACE.meet(_SPACE.meet(i, j), k) == _SPACE.meet(i, _SPACE.meet(j, k))
    assert _SPACE.leq[m, i] and _SPACE.leq[m, j]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, _SPACE.n - 1), min_size=1, max_size=5))
def test_meet_all_is_greatest_lower_bound(ids):
    m = _SPACE.meet_all(ids)
    for i in ids:
        assert _SPACE.leq[m, i]
    for c in range(_SPACE.n):
        if all(_SPACE.leq[c, i] for i in ids):
            assert _SPACE.leq[c, m]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, _SPACE.n - 1), min_size=1, max_size=4))
def test_sup_is_least_upper_bound(ids):
    if not _SPACE.bounded(ids):
        return
    s = _SPACE.sup(ids)
    for i in ids:
        assert _SPACE.leq[i, s]
    for c in range(_SPACE.n):
        if all(_SPACE.leq[i, c] for i in ids):
            assert _SPACE.leq[s, c]


def _brute_covers(space):
    """j covers i: i < j with no element strictly between them."""
    n = space.n
    strict = space.leq & ~np.eye(n, dtype=bool)
    out = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            if strict[i, j]:
                out[i, j] = not (strict[i] & strict[:, j]).any()
    return out


def _mask_rows(mat):
    """Row i of a boolean matrix as an int with bit j for column j."""
    return tuple(sum(1 << int(j) for j in np.flatnonzero(row)) for row in mat)


def test_cover_matrix_against_brute_force(z2, two_qubit):
    ts, comp = two_qubit
    simplex_square = build_tensor(simplex_space(3), simplex_space(3)).space
    assert simplex_square.n == 511
    for space in (z2.space, simplex_space(3).space, ts.space, comp.space,
                  simplex_square):
        assert space.covers == _mask_rows(_brute_covers(space))
        with pytest.raises(TypeError):
            space.covers[0] = 0


def _dense_arrays(space):
    return [name for name, value in vars(space).items()
            if isinstance(value, np.ndarray)]


def test_no_dense_array_until_leq_is_read():
    # fresh spaces, so that no other test has read their leq yet
    for na in (2, 3):
        ts, comp = indeterministic_tensor(spin_space(na), spin_space(2))
        rng = random.Random(na)
        reals = [i for i in range(ts.space.n) if i != ts.space.bottom]
        for _ in range(200):
            comp.sharpening(rng.sample(reals, rng.randint(1, 3)))
            i, j = rng.randrange(comp.space.n), rng.randrange(comp.space.n)
            comp.join(i, j)
            comp.meet(i, j)
            ts.space.meet(i % ts.space.n, j % ts.space.n)
            bits(comp.space.covers[i])
        for space in (bool_space(), ts.space, comp.space):
            assert _dense_arrays(space) == []
        # the view, once read, is the order the masks were built from:
        # inclusion of the completion's down-set keys, reverse inclusion of
        # the tensor's cover sets
        keys, covers = comp._keys, ts._covers
        assert comp.space.leq.tolist() == [[a & ~b == 0 for b in keys]
                                           for a in keys]
        assert ts.space.leq.tolist() == [[b & ~a == 0 for b in covers]
                                         for a in covers]
        for space in (ts.space, comp.space):
            assert space.leq is space.leq
            assert _dense_arrays(space) == ["_leq"]
            with pytest.raises(ValueError):
                space.leq[0, 0] = False


def test_constructor_takes_up_set_masks():
    names = ["bot", "a", "b"]
    space = StateSpace(names, [0b111, 0b010, 0b100])
    assert space.down == [0b001, 0b011, 0b101]
    assert space.up[0] >> 2 & 1 and not space.up[2] >> 0 & 1
    for up, message in (([0b111, 0b010], "2 up-set masks for 3 elements"),
                        ([0b111, 0b010, 0b100, 0b1000],
                         "4 up-set masks for 3 elements"),
                        ([0b111, 0b1010, 0b100], "up-set of 'a' is not"),
                        ([-1, 0b010, 0b100], "up-set of 'bot' is not"),
                        (np.eye(3, dtype=bool), "up-set of 'bot' is not"),
                        ([0b111, 0.5, 0b100], "up-set of 'a' is not")):
        with pytest.raises(InputError) as err:
            StateSpace(names, up)
        assert str(err.value).startswith(message)


def _dense_closure(mat):
    """Reflexive-transitive closure of a boolean relation matrix, by
    squaring until it stabilizes."""
    n = mat.shape[0]
    out = mat | np.eye(n, dtype=bool)
    while True:
        nxt = out | (out @ out)
        if (nxt == out).all():
            return out
        out = nxt


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda n: st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                       max_size=3 * n).map(lambda pairs: (n, pairs))),
    st.booleans())
@example((4, [(0, 1), (1, 2), (2, 3)]), False)
@example((5, [(1, 2), (1, 3), (2, 4), (3, 4)]), True)
@example((3, [(1, 2), (2, 1)]), True)
def test_from_relation_closes_like_the_dense_product(relation, rooted):
    n, pairs = relation
    if rooted:
        # e0 below everything, so that more draws are partial orders
        pairs = pairs + [(0, k) for k in range(n)]
    names = ["e%d" % i for i in range(n)]
    mat = np.zeros((n, n), dtype=bool)
    for a, b in pairs:
        mat[a, b] = True
    named = [(names[a], names[b]) for a, b in pairs]
    try:
        want = StateSpace(names, row_masks(_dense_closure(mat)))
    except InputError as err:
        with pytest.raises(InputError) as got:
            StateSpace.from_relation(names, named)
        assert str(got.value) == str(err)
        return
    space = StateSpace.from_relation(names, named)
    assert space.up == want.up
    assert space.covers == want.covers


def test_order_masks_match_leq(z2, two_qubit):
    ts, comp = two_qubit
    for space in (z2.space, simplex_space(3).space, ts.space, comp.space):
        n = space.n
        for i in range(n):
            assert space.up[i] == sum(1 << j for j in range(n)
                                      if space.leq[i, j])
            assert space.down[i] == sum(1 << j for j in range(n)
                                        if space.leq[j, i])


# -- differential tests of the mask-read meets and sups against leq-only
# oracles --------------------------------------------------------------------

def test_bits_and_inclusion_order():
    assert bits(0) == []
    assert bits(0b10110) == [1, 2, 4]
    assert bits(1 << 70 | 1) == [0, 70]
    masks = [0b011, 0b001, 0b111, 0b100]
    want = [[set(bits(a)) <= set(bits(b)) for b in masks] for a in masks]
    assert inclusion_order(masks) == row_masks(np.array(want))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, (1 << 80) - 1) | st.integers(0, 15),
                max_size=12))
def test_inclusion_order_matches_pairwise_tests(masks):
    # zero masks, repeats and masks wider than a machine word included
    want = [sum(1 << j for j, b in enumerate(masks) if a & ~b == 0)
            for a in masks]
    assert inclusion_order(masks) == want
    width = max(masks, default=0).bit_length()
    assert row_masks(unpack_masks(masks, width)) == masks
    # the columns of the masks, read bit by bit
    assert transpose(masks, width) == [
        sum(1 << i for i, m in enumerate(masks) if m >> x & 1)
        for x in range(width)]


def _oracle_meet_table(space):
    """For each pair, the common lower bound above every common lower
    bound, read off leq."""
    leq = space.leq
    table = np.empty((space.n, space.n), dtype=np.int64)
    for i in range(space.n):
        for j in range(space.n):
            lower = np.flatnonzero(leq[:, i] & leq[:, j])
            best = lower[leq[np.ix_(lower, lower)].all(axis=0)]
            assert len(best) == 1
            table[i, j] = best[0]
    return table


def _oracle_sup(space, ids):
    """The upper bound below every upper bound, read off leq, or None."""
    leq = space.leq
    upper = np.flatnonzero(leq[list(ids)].all(axis=0))
    least = upper[leq[np.ix_(upper, upper)].all(axis=1)]
    return int(least[0]) if len(least) else None


def _check_mask_queries(space, families):
    table = _oracle_meet_table(space)
    for i in range(space.n):
        assert [space.meet(i, j) for j in range(space.n)] == table[i].tolist()
    with pytest.raises(InputError, match="meet of an empty family"):
        space.meet_all([])
    verdicts = set()
    for ids in families:
        want = ids[0]
        for k in ids[1:]:
            want = table[want, k]
        assert space.meet_all(ids) == want
        want = _oracle_sup(space, ids)
        assert space.bounded(ids) == (want is not None)
        assert space.sup(ids) == want
        verdicts.add(want is not None)
    return verdicts


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 31), min_size=1, max_size=7, unique=True),
       st.data())
def test_mask_queries_match_oracle_on_intersection_families(family, data):
    space = _inclusion_space(family)
    families = data.draw(st.lists(
        st.lists(st.integers(0, space.n - 1), min_size=1, max_size=4),
        min_size=1, max_size=10))
    _check_mask_queries(space, families)


def test_mask_queries_match_oracle_on_two_qubit_tensor(two_qubit):
    ts, comp = two_qubit
    rng = random.Random(31)
    for space in (ts.space, comp.space):
        families = [rng.sample(range(space.n), rng.randint(1, 4))
                    for _ in range(400)]
        # both verdicts of bounded occur on each space
        assert _check_mask_queries(space, families) == {True, False}


# -- validation errors against the dense-product oracle ----------------------

def _oracle_validation_error(leq):
    """The first order-axiom violation, named as by dense boolean matrix
    products, or None when the relation is a partial order with bottom."""
    n = len(leq)
    names = ["e%d" % i for i in range(n)]
    if not leq.diagonal().all():
        i = int(np.flatnonzero(~leq.diagonal())[0])
        return "order not reflexive at %r" % names[i]
    bad = leq & leq.T & ~np.eye(n, dtype=bool)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        return "antisymmetry fails for %r, %r" % (names[i], names[j])
    trans = leq @ leq & ~leq
    if trans.any():
        i, j = np.argwhere(trans)[0]
        return "transitivity fails for %r, %r" % (names[i], names[j])
    if not (leq.sum(axis=1) == n).any():
        return "no bottom element"
    return None


def _oracle_missing_meet(leq):
    """The first pair, in a row-major scan, whose common lower bounds have
    no greatest member, or None."""
    n = len(leq)
    for i in range(n):
        for j in range(n):
            lower = np.flatnonzero(leq[:, i] & leq[:, j])
            if not leq[np.ix_(lower, lower)].all(axis=0).any():
                return "no meet for 'e%d', 'e%d'" % (i, j)
    return None


def _relation(rows):
    return np.array(rows, dtype=bool)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                       min_size=n, max_size=n)),
    st.booleans(), st.booleans())
@example([[True, False], [True, False]], False, False)
@example([[True, True], [True, True]], False, False)
@example([[True, True, False], [False, True, True], [False, False, True]],
         False, False)
@example([[True, False], [False, True]], False, False)
# e0 below e1 and e2, both below e3 and e4: the adjacent pair e3, e4 has
# two maximal common lower bounds
@example([[True, True, True, True, True],
          [False, True, False, True, True],
          [False, False, True, True, True],
          [False, False, False, True, False],
          [False, False, False, False, True]], False, False)
def test_validation_errors_match_dense_oracle(rows, reflexive, antisymmetric):
    leq = _relation(rows)
    n = len(leq)
    if reflexive:
        leq |= np.eye(n, dtype=bool)
    if antisymmetric:
        leq &= ~np.tril(leq.T, -1)
    want = _oracle_validation_error(leq)
    names = ["e%d" % i for i in range(n)]
    if want is None:
        # a partial order with bottom may still lack a meet
        want = _oracle_missing_meet(leq)
    if want is None:
        space = StateSpace(names, row_masks(leq))
        assert space.covers == _mask_rows(_brute_covers(space))
        return
    with pytest.raises(InputError) as err:
        StateSpace(names, row_masks(leq))
    assert str(err.value) == want
