"""Finite bounded meet-semilattices and the three-valued outcome domain.

An outcome is an element id of `bool_space()`: YES, NO or BOT, named "Y",
"N" and "BOT", with BOT below the two definite answers.  The domain's meet
and join are the space's own, and its bar is the star of
`realspaces.bool_real_space()`, swapping Y and N and fixing BOT.  On top it
carries a commutative "and"-like product (Y is the unit, N is absorbing).
Read as the set of answers it allows, an outcome is its OUTCOME_MASK (bit 0
for Y, bit 1 for N), and outcomes meet by union (Abramsky and
Brandenburger, New J. Phys. 13, 113036, 2011).

`StateSpace` is a finite meet-semilattice with a bottom element, given and
stored as int bitmasks of up-sets, plus their transpose (the down-sets) and
the upper covers.  The library reads the order through these masks alone
and needs only the standard library; the dense order matrix `leq` is a
numpy view, built on first read for callers that want one, so a process
that never reads it never loads numpy.  Everything downstream (real
structures, ontic completions, tensors) is built out of these.
"""

import json

# the element ids of bool_space()
YES, NO, BOT = 0, 1, 2
BOOL_VALUES = (YES, NO, BOT)
# each outcome's possibility mask, by id: bit 0 for Y, bit 1 for N
OUTCOME_MASK = (0b01, 0b10, 0b11)


class InputError(ValueError):
    """Malformed or inconsistent input data."""


class CapExceeded(RuntimeError):
    """A configured size cap was hit before the computation finished."""


def bool_bullet(x, y):
    # commutative monoid: Y is the unit, N absorbs, BOT*BOT = BOT
    if x == NO or y == NO:
        return NO
    if x == YES:
        return y
    if y == YES:
        return x
    return BOT


def bits(mask):
    """The set bits of an int mask, lowest first (read off the top bit)."""
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return out


def unpack_masks(masks, width):
    """A family of int masks as a boolean matrix, row i holding the low
    `width` bits of masks[i]."""
    import numpy as np
    nbytes = (width + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(nbytes, "little")
                                    for m in masks), dtype=np.uint8)
    return np.unpackbits(packed.reshape(len(masks), nbytes), axis=1,
                         count=width, bitorder="little").astype(bool)


def transpose(rows, width):
    """The columns of a family of int row masks: bit i of the j-th result is
    bit j of rows[i], for j below width.  One OR per set bit."""
    cols = [0] * width
    for i, row in enumerate(rows):
        bit = 1 << i
        for j in bits(row):
            cols[j] |= bit
    return cols


def inclusion_order(masks):
    """Inclusion order of a family of int masks, as row masks: bit j of row
    i is set when masks[i] lies inside masks[j].  With holders[x] the mask
    of the j whose masks[j] holds bit x, row i is the AND of holders[x] over
    the bits x of masks[i]."""
    holders = transpose(masks, max(masks, default=0).bit_length())
    full = (1 << len(masks)) - 1
    rows = []
    for m in masks:
        row = full
        for x in bits(m):
            row &= holders[x]
        rows.append(row)
    return rows


def _peeled_covers(up):
    """The upper covers, or None when an up-set reaches above its own id or
    transitivity fails.  The highest id left in a strict up-set is a cover,
    peeled off; by induction, transitivity is up[c] in up[i] per cover c."""
    covers = []
    for i, row in enumerate(up):
        if row >> i != 1:
            return None
        rest, mine = row ^ (1 << i), 0
        while rest:
            c = rest.bit_length() - 1
            if up[c] & ~row:
                return None
            mine |= 1 << c
            rest &= ~up[c]
        covers.append(mine)
    return covers


class StateSpace(object):
    """A finite meet-semilattice with bottom, over named elements, given by
    its up-sets as int masks: bit j of `up[i]`, and of the read-only
    `covers[i]`, is set when i lies below j, and when j covers i.  `down`
    is the transpose of `up`.  No n × n array is held: `leq`, with leq[i, j]
    when i lies below j, is a read-only view unpacked on first read.  The
    meet of i and j is the element whose down-set is down[i] & down[j], and
    the least upper bound of a bounded family the element whose up-set is
    the AND of theirs.  Validation is eager: reflexivity, antisymmetry,
    transitivity, a unique bottom and a meet for every pair are checked at
    construction, naming the first offending pair in id order: the order
    axioms and covers take one OR per cover when ids run top down, else
    one per comparable pair; the meets one AND and one lookup per pair,
    which `from_keys` skips for families whose meets exist by construction.
    """

    def __init__(self, names, up, _scan_meets=True, _down=None):
        names = list(names)
        if len(set(names)) != len(names):
            dupes = sorted(n for n in set(names) if names.count(n) > 1)
            raise InputError("duplicate element names: %s" % dupes[0])
        n, up = len(names), list(up)
        if len(up) != n:
            raise InputError("%d up-set masks for %d elements" % (len(up), n))
        for i, m in enumerate(up):
            if not isinstance(m, int) or m < 0 or m >> n:
                raise InputError("up-set of %r is not an int mask over the "
                                 "%d elements" % (names[i], n))
        self.names = names
        self.n = n
        self._index = {name: i for i, name in enumerate(names)}
        self.up = up
        self.down = transpose(up, n) if _down is None else _down
        self._leq = None
        # the element with each down-set, read by meet and by _validate
        self._by_down = {d: k for k, d in enumerate(self.down)}
        self.covers = tuple(self._validate(_scan_meets))
        self.bottom = self.up.index((1 << self.n) - 1)
        # ontic's closed-set index, left by a completion of this space, and
        # closure_step's bit tables, built on the first step
        self._closed = None
        self._step_tables = None
        self.maximals = tuple(i for i, row in enumerate(self.covers)
                              if not row)
        self._by_up = {u: k for k, u in enumerate(self.up)}

    def _validate(self, meets=True):
        """Check the order axioms on the masks, naming the first offending
        pair in id order, and return each element's row of upper covers:
        its strict up-set minus everything strictly above a member of it.
        Ids that run top down, as in tensors and the built-in base spaces,
        take one OR per cover (_peeled_covers); otherwise, and to name a
        failure, transitivity holds when the up-sets of the members of up[i]
        stay inside up[i], one OR per comparable pair.  With meets, a pair
        has a meet when down[i] & down[j] is some element's down-set.  The
        scan runs over i < j only and still names the first pair of a
        row-major scan: the first row with a missing meet cannot miss it
        below the diagonal, or an earlier row would miss it too."""
        names, up, down = self.names, self.up, self.down
        covers = _peeled_covers(up)
        if covers is None:
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
                    raise InputError("transitivity fails for %r, %r" % (
                        names[i], names[bits(above & ~row)[0]]))
                covers.append(strict & ~above)
        if (1 << self.n) - 1 not in up:
            raise InputError("no bottom element")
        has = self._by_down.__contains__
        for i, d in enumerate(down if meets else ()):
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

    @property
    def leq(self):
        """The order matrix, unpacked from `up` on first read and kept."""
        if self._leq is None:
            self._leq = unpack_masks(self.up, self.n)
            self._leq.setflags(write=False)
        return self._leq

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

    def covered_by(self, i, j):
        return bool(self.covers[i] >> j & 1)

    def pures(self):
        """Maximal elements; in every space here these are exactly the
        completely meet-irreducible ones."""
        return list(self.maximals)

    def pures_above(self, i):
        return [m for m in self.maximals if self.up[i] >> m & 1]

    def generated_by_pures(self):
        pures = sum(1 << m for m in self.maximals)
        return all(self.meet_all(bits(row & pures)) == i
                   for i, row in enumerate(self.up) if row & pures)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_keys(cls, names, keys, reverse=False):
        """The int masks `keys` under inclusion (reverse inclusion when
        reverse), checked but for the meet scan, n²/2 ANDs and lookups (76 M
        at Z3⊗Z3), as each family built here is the closed sets of a
        closure operator (Caspard and Monjardet, Discrete Appl. Math.
        127(2), 2003).  Completion lemma: the keys are the closed admissible
        down-sets of a real space, and as star reverses the order a set
        inside an admissible one is admissible, so an AND of keys is a key.
        Tensor lemma (reverse): the keys are cover sets; every element is a
        meet of pure tensors, and the enumeration meets each element with
        every pure tensor, so it holds the meet of any two.  The far side is
        the transpose, or the complements' inclusion when they are sparser."""
        rows = inclusion_order(keys)  # reversed, row i is i's down-set
        full = (1 << max(keys, default=0).bit_length()) - 1
        flip = [full ^ k for k in keys]
        other = inclusion_order(flip) if sum(map(int.bit_count, flip)) < sum(
            map(int.bit_count, rows)) else transpose(rows, len(rows))
        up, down = (other, rows) if reverse else (rows, other)
        return cls(names, up, _scan_meets=False, _down=down)

    @classmethod
    def from_relation(cls, names, pairs):
        """Build from a list of (below, above) name pairs; the reflexive
        transitive closure is taken automatically."""
        names = list(names)
        idx = {name: i for i, name in enumerate(names)}
        up = [1 << i for i in range(len(names))]
        for a, b in pairs:
            if a not in idx or b not in idx:
                raise InputError("leq pair (%r, %r) uses an unknown element" % (a, b))
            up[idx[a]] |= 1 << idx[b]
        # Warshall: after round k each up-set holds what it reaches via 0..k
        for k in range(len(up)):
            bit, above = 1 << k, up[k]
            up = [u | above if u & bit else u for u in up]
        return cls(names, up)

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

    def to_dot(self):
        lines = ["digraph space {", "  rankdir=BT;"]
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
    return StateSpace(["Y", "N", "BOT"], [0b001, 0b010, 0b111])
