import pytest

from qlattice.core_order import YES, NO, BOT, InputError, bool_space
from qlattice import chu
from qlattice.realspaces import bool_real_space, spin_space, simplex_space


def _sharp(rs, name):
    i = rs.space.index(name)
    return chu.make_effect(rs.space, i, rs.star_of(i))


def test_sharp_measurement_values():
    z2 = spin_space(2)
    l = _sharp(z2, "a")
    values = {z2.space.names[s]: chu.evaluate(z2.space, l, s)
              for s in range(z2.space.n)}
    assert values == {"a": YES, "a*": NO, "b": BOT, "b*": BOT, "BOT": BOT}


def test_effect_rejects_bounded_parts():
    z2 = spin_space(2)
    a = z2.space.index("a")
    with pytest.raises(InputError):
        chu.make_effect(z2.space, a, a)


def test_yes_effect_is_constant_yes_on_pures():
    z3 = simplex_space(3)
    l = chu.yes_effect(z3.space)
    for p in z3.space.pures():
        assert chu.evaluate(z3.space, l, p) == YES
    assert chu.evaluate(z3.space, l, z3.space.bottom) in (YES, BOT)


def test_effect_bar_swaps_answers():
    z2 = spin_space(2)
    l = _sharp(z2, "a")
    bar = chu.effect_bar(l)
    for s in range(z2.space.n):
        got = chu.evaluate(z2.space, bar, s)
        want = chu.evaluate(z2.space, l, s)
        flip = {YES: NO, NO: YES, BOT: BOT}
        assert got == flip[want]


def test_evaluation_is_monotone():
    # sigma below tau can only lose definiteness, never change the answer
    z2 = spin_space(2)
    space = z2.space
    for l in chu.all_effects(space):
        for s in range(space.n):
            for t in range(space.n):
                if not space.leq[s, t]:
                    continue
                low = chu.evaluate(space, l, s)
                high = chu.evaluate(space, l, t)
                assert low == BOT or low == high


def _extensionality_witness(space):
    """None when distinct effects evaluate differently somewhere and
    distinct states are told apart by some effect; else the first pair of
    effects, or of state names, that agree everywhere."""
    effects = chu.all_effects(space)
    profiles = {}
    for l in effects:
        p = tuple(chu.evaluate(space, l, s) for s in range(space.n))
        if p in profiles:
            return profiles[p], l
        profiles[p] = l
    columns = {}
    for s in range(space.n):
        col = tuple(chu.evaluate(space, l, s) for l in effects)
        if col in columns:
            return space.names[columns[col]], space.names[s]
        columns[col] = s
    return None


def test_extensionality_on_small_spaces():
    for rs in (spin_space(2), simplex_space(3)):
        assert _extensionality_witness(rs.space) is None


def test_effect_meet_pointwise():
    z2 = spin_space(2)
    space = z2.space
    l1, l2 = _sharp(z2, "a"), _sharp(z2, "b")
    m = chu.effect_meet(space, l1, l2)
    outcomes = bool_space()
    for s in range(space.n):
        assert chu.evaluate(space, m, s) == outcomes.meet(
            chu.evaluate(space, l1, s), chu.evaluate(space, l2, s))


def test_outcomes_are_bool_space_ids():
    # the sharp effect l(Y, N) reads each state of the outcome domain as
    # itself
    rs = bool_real_space()
    for x in range(rs.space.n):
        assert chu.evaluate(rs.space, chu.Effect(YES, NO), x) == x
