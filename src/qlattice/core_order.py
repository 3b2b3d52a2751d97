"""Finite bounded meet-semilattices and the three-valued outcome domain.

The outcome domain has three values Y, N and BOT, ordered so that BOT sits
below the two definite answers.  On top of the meet that comes with this
order it carries a commutative "and"-like product (Y is the unit, N is
absorbing) and an involution swapping Y and N.

`StateSpace` is a finite meet-semilattice with a bottom element, stored as
int bitmasks of up-sets, down-sets and upper covers, plus one dense boolean
order matrix `leq` for matrix reads; there is no covering matrix and no
meet table.  Everything downstream (real structures, ontic completions,
tensors) is built out of these.
"""

import json

import numpy as np

YES = "Y"
NO = "N"
BOT = "BOT"
BOOL_VALUES = (YES, NO, BOT)


class InputError(ValueError):
    """Malformed or inconsistent input data."""


class CapExceeded(RuntimeError):
    """A configured size cap was hit before the computation finished."""


def bool_leq(x, y):
    return x == y or x == BOT


def bool_meet(x, y):
    return x if x == y else BOT


def bool_join(x, y):
    """Least upper bound, or None for the unbounded pair {Y, N}."""
    if x == y:
        return x
    if x == BOT:
        return y
    if y == BOT:
        return x
    return None


def bool_bullet(x, y):
    # commutative monoid: Y is the unit, N absorbs, BOT*BOT = BOT
    if x == NO or y == NO:
        return NO
    if x == YES:
        return y
    if y == YES:
        return x
    return BOT


def bool_bar(x):
    if x == YES:
        return NO
    if x == NO:
        return YES
    return BOT


def bool_meet_all(values):
    out = None
    for v in values:
        out = v if out is None else bool_meet(out, v)
    if out is None:
        raise InputError("meet of an empty family of outcomes")
    return out


def bool_bullet_all(values):
    out = YES
    for v in values:
        out = bool_bullet(out, v)
    return out


def row_masks(mat):
    """Each row of a boolean matrix as an int, bit j for column j."""
    packed = np.packbits(mat, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def bits(mask):
    """The set bits of an int mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def unpack_masks(masks, width):
    """A family of int masks as a boolean matrix, row i holding the low
    `width` bits of masks[i]: the inverse of row_masks."""
    nbytes = (width + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(nbytes, "little")
                                    for m in masks), dtype=np.uint8)
    return np.unpackbits(packed.reshape(len(masks), nbytes), axis=1,
                         count=width, bitorder="little").astype(bool)


def inclusion_order(masks):
    """Inclusion order of a family of int masks: [i, j] is set when
    masks[i] lies inside masks[j].  With holders[x] the mask of the j whose
    masks[j] holds bit x, row i is the AND of holders[x] over the bits x of
    masks[i]."""
    width = max(masks, default=0).bit_length()
    holders = row_masks(unpack_masks(masks, width).T)
    full = (1 << len(masks)) - 1
    rows = []
    for m in masks:
        row = full
        for x in bits(m):
            row &= holders[x]
        rows.append(row)
    return unpack_masks(rows, len(masks))


def _closure(mat):
    """Reflexive-transitive closure of a boolean relation matrix."""
    n = mat.shape[0]
    out = mat | np.eye(n, dtype=bool)
    while True:
        nxt = out | (out @ out)
        if (nxt == out).all():
            return out
        out = nxt


class StateSpace(object):
    """A finite meet-semilattice with bottom, over named elements.

    The order is kept as int bitmasks: bit j of `up[i]` and bit i of
    `down[j]` are set when i lies below j, and bit j of the read-only
    `covers[i]` when j covers i.  The one dense view is the order matrix
    `leq`, indexed so that leq[i, j] means element i lies below element j.
    Meets and least upper bounds are read off the masks: the meet of i and
    j is the element whose down-set is down[i] & down[j], and the least
    upper bound of a bounded family the element whose up-set is the AND of
    theirs.  Validation is eager: reflexivity, antisymmetry, transitivity,
    a unique bottom and the existence of a unique greatest common lower
    bound for every pair are all checked at construction time, and the
    first offending pair (in id order) is named in the error.  The order
    axioms and the covers are read off the masks with one OR per comparable
    pair, and the meets with one AND and one lookup per pair, not with
    dense n × n matrices.
    """

    def __init__(self, names, leq):
        names = list(names)
        if len(set(names)) != len(names):
            dupes = sorted(n for n in set(names) if names.count(n) > 1)
            raise InputError("duplicate element names: %s" % dupes[0])
        leq = np.asarray(leq, dtype=bool)
        if leq.shape != (len(names), len(names)):
            raise InputError("order matrix shape %s does not match %d elements"
                             % (leq.shape, len(names)))
        self.names = names
        self.n = len(names)
        self.leq = leq
        self.leq.setflags(write=False)
        self._index = {name: i for i, name in enumerate(names)}
        self.up = row_masks(leq)
        self.down = row_masks(leq.T)
        # the element with each down-set, read by _validate once the order
        # axioms hold
        self._by_down = {d: k for k, d in enumerate(self.down)}
        self.covers = tuple(self._validate())
        self.bottom = self.up.index((1 << self.n) - 1)
        # ontic.closure_step's results by input down-set, and its bit
        # tables, built on the first memo miss
        self._steps = {}
        self._step_tables = None
        self.maximals = tuple(i for i, row in enumerate(self.covers)
                              if not row)
        self._by_up = {u: k for k, u in enumerate(self.up)}

    def _validate(self):
        """Check the order axioms on the masks, naming the first offending
        pair in id order, and return each element's row of upper covers:
        its strict up-set minus everything strictly above a member of it.
        Transitivity holds when the up-sets of the members of up[i] stay
        inside up[i]; the work is one OR per comparable pair.  A pair has a
        meet when down[i] & down[j] is some element's down-set.  The scan
        runs over i < j only and still names the first pair of a row-major
        scan: the first row with a missing meet cannot miss it below the
        diagonal, or an earlier row would miss it too."""
        names, up, down = self.names, self.up, self.down
        for i, row in enumerate(up):
            if not row >> i & 1:
                raise InputError("order not reflexive at %r" % names[i])
        for i, row in enumerate(up):
            both = row & down[i] & ~(1 << i)
            if both:
                raise InputError("antisymmetry fails for %r, %r"
                                 % (names[i], names[bits(both)[0]]))
        covers = []
        for i, row in enumerate(up):
            strict = row ^ (1 << i)
            above = 0
            for k in bits(strict):
                above |= up[k] ^ (1 << k)
            if above & ~row:
                raise InputError("transitivity fails for %r, %r"
                                 % (names[i], names[bits(above & ~row)[0]]))
            covers.append(strict & ~above)
        if (1 << self.n) - 1 not in up:
            raise InputError("no bottom element")
        has = self._by_down.__contains__
        for i, d in enumerate(down):
            if not all(map(has, map(d.__and__, down[i + 1:]))):
                j = next(j for j in range(i + 1, self.n)
                         if not has(d & down[j]))
                raise InputError("no meet for %r, %r" % (names[i], names[j]))
        return covers

    # -- queries ---------------------------------------------------------

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise InputError("unknown element %r" % (name,))

    def below(self, i, j):
        return bool(self.leq[i, j])

    def meet(self, i, j):
        return self._by_down[self.down[i] & self.down[j]]

    def meet_all(self, indices):
        it = iter(indices)
        try:
            out = self.down[next(it)]
        except StopIteration:
            raise InputError("meet of an empty family")
        for k in it:
            out &= self.down[k]
        return self._by_down[out]

    def _upper_bounds(self, indices):
        out = (1 << self.n) - 1
        for i in indices:
            out &= self.up[i]
        return out

    def bounded(self, indices):
        return self._upper_bounds(indices) != 0

    def sup(self, indices):
        """Least upper bound, or None when the family has no upper bound."""
        ubs = self._upper_bounds(indices)
        return self._by_up[ubs] if ubs else None

    def join(self, i, j):
        return self.sup((i, j))

    def upper_covers(self, i):
        return bits(self.covers[i])

    def covered_by(self, i, j):
        return bool(self.covers[i] >> j & 1)

    def pures(self):
        """Maximal elements; in every space here these are exactly the
        completely meet-irreducible ones."""
        return list(self.maximals)

    def pures_above(self, i):
        return [m for m in self.maximals if self.up[i] >> m & 1]

    def generated_by_pures(self):
        return all(self.meet_all(self.pures_above(i)) == i
                   for i in range(self.n) if self.pures_above(i))

    # -- construction ----------------------------------------------------

    @classmethod
    def from_relation(cls, names, pairs):
        """Build from a list of (below, above) name pairs; the reflexive
        transitive closure is taken automatically."""
        names = list(names)
        idx = {name: i for i, name in enumerate(names)}
        mat = np.zeros((len(names), len(names)), dtype=bool)
        for a, b in pairs:
            if a not in idx or b not in idx:
                raise InputError("leq pair (%r, %r) uses an unknown element" % (a, b))
            mat[idx[a], idx[b]] = True
        return cls(names, _closure(mat))

    @classmethod
    def from_json(cls, text):
        data = json.loads(text) if isinstance(text, str) else text
        try:
            names = data["elements"]
            pairs = data["leq"]
        except (KeyError, TypeError):
            raise InputError("space JSON needs 'elements' and 'leq' keys")
        space = cls.from_relation(names, pairs)
        bottom = data.get("bottom")
        if bottom is not None and space.names[space.bottom] != bottom:
            raise InputError("declared bottom %r is not the least element" % bottom)
        return space

    def to_json_dict(self):
        pairs = sorted([self.names[i], self.names[j]]
                       for i, row in enumerate(self.covers) for j in bits(row))
        return {"elements": list(self.names),
                "leq": pairs,
                "bottom": self.names[self.bottom]}

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2)

    def to_dot(self, graph_name="space"):
        lines = ["digraph %s {" % graph_name, "  rankdir=BT;"]
        for name in self.names:
            lines.append('  "%s";' % name)
        for i, row in enumerate(self.covers):
            lines.extend('  "%s" -> "%s";' % (self.names[i], self.names[j])
                         for j in bits(row))
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return "StateSpace(%d elements, bottom=%r)" % (self.n, self.names[self.bottom])


def bool_space():
    """The three-outcome domain as a StateSpace."""
    names = [YES, NO, BOT]
    pairs = [(BOT, YES), (BOT, NO)]
    return StateSpace.from_relation(names, pairs)
