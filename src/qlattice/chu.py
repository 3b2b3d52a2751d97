"""Effects over a state space and the evaluation map.

An effect is a pair of optional elements (yes part, no part).  Evaluating an
effect at a state answers Y when the yes part lies below the state, N when
the no part does, and BOT otherwise; a missing part never matches.  A valid
two-sided effect has unbounded parts, so the two answers can never fire at
once.
"""

from dataclasses import dataclass

from .core_order import BOT, NO, YES, InputError, CapExceeded


@dataclass(frozen=True)
class Effect(object):
    """yes/no parts are element ids; None encodes an absent part."""
    yes: object = None
    no: object = None

    def serialize(self, space):
        return {"yes": None if self.yes is None else space.names[self.yes],
                "no": None if self.no is None else space.names[self.no]}


BOTTOM_EFFECT = Effect(None, None)
# most candidate part pairs that all_effects runs over
PAIR_CAP = 4096


def make_effect(space, yes=None, no=None):
    if yes is not None and no is not None and space.bounded((yes, no)):
        raise InputError("effect parts %r, %r share an upper bound"
                         % (space.names[yes], space.names[no]))
    return Effect(yes, no)


def yes_effect(space):
    """The trivially-true effect: yes part bottom, no part absent."""
    return Effect(space.bottom, None)


def effect_bar(l):
    return Effect(l.no, l.yes)


def evaluate(space, l, sigma):
    if l.yes is not None and space.up[l.yes] >> sigma & 1:
        return YES
    if l.no is not None and space.up[l.no] >> sigma & 1:
        return NO
    return BOT


def _part_meet(space, x, y):
    # absent absorbs; a bounded pair joins, an unbounded pair degrades to absent
    if x is None or y is None:
        return None
    return space.join(x, y)


def effect_meet(space, l1, l2):
    return Effect(_part_meet(space, l1.yes, l2.yes),
                  _part_meet(space, l1.no, l2.no))


def _part_sup(space, x, y):
    # absent is the unit here
    if x is None:
        return y
    if y is None:
        return x
    return space.meet(x, y)


def effect_sup(space, l1, l2):
    """Least common refinement of two effects, or None when they clash."""
    yes = _part_sup(space, l1.yes, l2.yes)
    no = _part_sup(space, l1.no, l2.no)
    if yes is not None and no is not None and space.bounded((yes, no)):
        return None
    return Effect(yes, no)


def all_effects(space):
    """Every valid effect, bottom effect first, then one- and two-sided
    ones in element order."""
    if space.n * space.n > PAIR_CAP:
        raise CapExceeded("effect enumeration over %d candidate pairs (cap %d)"
                          % (space.n * space.n, PAIR_CAP))
    out = [BOTTOM_EFFECT]
    out.extend(Effect(i, None) for i in range(space.n))
    out.extend(Effect(None, i) for i in range(space.n))
    for i in range(space.n):
        for j in range(space.n):
            if not space.bounded((i, j)):
                out.append(Effect(i, j))
    return out
