"""Completion of a real structure by hidden states.

A hidden state is represented by the antichain of maximal real states lying
below it.  The pre-closure of a set U of real elements collects the maximal
least upper bounds reachable from below U; iterating it to a fixed point
yields the canonical antichain.  An antichain is admissible when its closure
never puts a starred element below another member; the completed space
consists of exactly the canonical admissible antichains, ordered by
"every member refines into some member".

Admissibility is only lost as a union grows: the closure is monotone, and a
closed set holding both x and x* holds them in every larger one.  So once a
pair of reals has an inadmissible join, every union that contains the pair
(or two reals above it) is inadmissible too, and the completion answers it
without a closure.

The completion keys its elements by down-set; the closed down-sets form a
closure system on the reals (Caspard and Monjardet, "The lattices of
closure systems, closure operators, and implicational systems on a finite
set: a survey", Discrete Applied Mathematics 127(2), 2003).  This is exact.
The trace of z in a pre-closure step is D(z) ∩ D(U), so a closure depends
on the union's down-set D(U) alone.  An element is the antichain of maximal
reals of its closed down-set, so distinct elements have distinct keys.  A
closed set is its own closure, so a union whose down-set is already a key
adds nothing and the search skips it without a closure (the fact behind
NextClosure: Ganter, "Two basic algorithms in concept analysis", ICFCA
2010); it keeps no join memo, even during the build.  Two incomparable reals
are the maximal elements of their union's down-set, so the first level of
the search meets every such pair as a two-member union, and the pair table
fills as on antichains.  The pair test is sound whichever members it looks
at: a member and a real below the union that form a bad pair both lie in
the union's down-set.

One pre-closure step is bit-sliced, in the manner of the bit-vector lattice
encodings of Aït-Kaci, Boyer, Lincoln and Nasr ("Efficient implementation
of lattice operations", TOPLAS 11(1), 1989) and of the carry trick that
tests many bit fields at once (Knuth, TAOCP 4A, §7.1.3).  Every cover pair
(z, c), z covering c, owns one bit; the pairs of one z sit side by side
with a guard bit above them.  sat[u] holds the pairs whose gap, the
elements below z and not below c, meets the down-set of u.  A set meets a
gap exactly when one of its members' down-sets does, so sat is additive and
the pairs met by the input are one OR per member.  z is the least upper
bound of its trace when every gap of z is met, and adding 1 at the bottom
of z's block carries into its guard exactly then.  The bottom covers
nothing: it is always fixed, and is the answer only for a bottom-only
input.  The tables are read off the up-set, down-set and cover masks.
"""

from .core_order import (InputError, CapExceeded, StateSpace, bits,
                         inclusion_order)
from .realspaces import RealSpace, RealStructureEmbedding

# the default cap on the join candidates that a completion build tries
CANDIDATE_CAP = 10 ** 6


class LiftError(InputError):
    """A morphism image fails admissibility and cannot be lifted."""


def _step_tables(space):
    """The bit tables of closure_step, built once per space: (sat, blocks,
    lows, guards, owner, keep).  Each element above the bottom owns one
    block, its cover pairs and a guard bit above them; the blocks run bottom
    up in down-set size.  bit p of sat[u] is set when the gap of cover pair
    p meets down[u]; blocks, lows and guards hold the pair bits, the lowest
    bit of each block and the guard bits; owner maps g + 1 to the element
    whose guard is bit g, and keep[z] holds the guards of the elements not
    below z.  All are read off the masks: sat[x] starts as the pairs whose
    gap holds x, and since down[u] is u and the down-sets of what u covers,
    bottom up, sat[u] and the guards below u OR in those of what u covers."""
    n, down = space.n, space.down
    lower = [[] for _ in range(n)]
    for c, row in enumerate(space.covers):
        for z in bits(row):
            lower[z].append(c)
    order = sorted((z for z in range(n) if lower[z]),
                   key=lambda z: down[z].bit_count())
    sat, below = [0] * n, [0] * n
    blocks = lows = guards = width = 0
    owner = {}
    for z in order:
        lows |= 1 << width
        blocks |= ((1 << len(lower[z])) - 1) << width
        for c in lower[z]:
            for x in bits(down[z] & ~down[c]):
                sat[x] |= 1 << width
            width += 1
        below[z] = 1 << width
        guards |= 1 << width
        width += 1
        owner[width] = z
    for u in order:
        for c in lower[u]:
            sat[u] |= sat[c]
            below[u] |= below[c]
    keep = [guards & ~m for m in below]
    return sat, blocks, lows, guards, owner, keep


def closure_step(space, members):
    """One application of the pre-closure: the maximal elements z that are
    the least upper bound of their own trace, the elements below z and
    below some member.

    Every bounded set has a unique least upper bound (meets exist), so z is
    the least upper bound of its trace exactly when no element c that z
    covers is above the whole trace, that is when the trace meets every
    cover gap of z, the elements below z and not below c.  The gap lies
    below z, so the trace meets it exactly when the input's down-set does,
    and that is when the down-set of some member does: whether a gap is met
    is the OR over the members of sat[u] (see _step_tables), one bit per
    cover pair.  Adding a block's lowest bit to its met pairs carries into
    its guard exactly when every pair of the block is met, and stops inside
    the block otherwise, so one addition over all blocks at once leaves the
    guard bits of the fixed elements.  The bottom covers nothing and is
    always fixed; it is maximal only when nothing else is, that is for a
    bottom-only input.  Blocks run bottom up, so the highest guard left is
    a maximal fixed element; each one found clears the guards of everything
    below it.  The work is one OR per member, one carry, and a few big-int
    operations per element returned.  Steps are memoized on the input's
    down-set; the tables are built on a space's first memo miss."""
    below = 0
    for u in members:
        below |= space.down[u]
    out = space._steps.get(below)
    if out is not None:
        return out
    if space._step_tables is None:
        space._step_tables = _step_tables(space)
    sat, blocks, lows, guards, owner, keep = space._step_tables
    hit = 0
    for u in members:
        hit |= sat[u]
    fixed = ((hit & blocks) + lows) & guards
    found = []
    while fixed:
        z = owner[fixed.bit_length()]
        found.append(z)
        fixed &= keep[z]
    out = tuple(sorted(found)) or (space.bottom,)
    space._steps[below] = out
    return out


def closure(space, members):
    """The iterated pre-closure, up to its fixed point."""
    members = sorted(set(int(m) for m in members))
    if not members:
        raise InputError("closure of an empty set")
    if space.bottom in members and len(members) > 1:
        raise InputError("bottom element inside a closure argument")
    if members == [space.bottom]:
        return (space.bottom,)
    current = tuple(members)
    for _ in range(space.n + 1):
        nxt = closure_step(space, current)
        if nxt == current:
            return current
        current = nxt
    raise InputError("closure failed to stabilize")


def is_star_free(rs, members):
    """No member's star sits below a member.

    The members are taken in turn against the masks of those before them:
    y completes a bad pair when it lies above the star of an earlier
    member, or when its own star lies below an earlier member or below y.
    That is one up-set AND per member, and the test stops at the first
    member that completes a bad pair."""
    up = rs.space.up
    held = above = 0
    for y in members:
        y = int(y)
        bit = 1 << y
        star_up = up[rs.star_of(y)]
        if above & bit or star_up & (held | bit):
            return False
        held |= bit
        above |= star_up
    return True


def is_unbounded_star_free(rs, members):
    """Star-free and pairwise unbounded: the shape every member of the
    maximal candidate family has."""
    members = list(members)
    if not is_star_free(rs, members):
        return False
    for i, x in enumerate(members):
        for y in members[i + 1:]:
            if rs.space.bounded((x, y)):
                return False
    return True


def sharpen(rs, members):
    """The canonical antichain of the closure of the non-bottom members, or
    None when it is not star-free; the bottom alone for no such member."""
    space = rs.space
    members = [m for m in members if m != space.bottom]
    if not members:
        return (space.bottom,)
    out = closure(space, members)
    return out if is_star_free(rs, out) else None


def is_admissible(rs, members):
    return sharpen(rs, members) is not None


class OnticCompletion(object):
    """The completed space over a real structure, fully enumerated.

    Elements are canonical admissible antichains of non-bottom reals; the
    bottom is the singleton of the real bottom.  The enumeration closes the
    real singletons under binary joins, which reaches every canonical
    antichain (each one is the join of its own members).  Elements are keyed
    by their closed down masks, and the order is inclusion of those masks.
    """

    def __init__(self, rs, cap=CANDIDATE_CAP):
        if not isinstance(rs, RealSpace):
            raise InputError("completion needs a RealSpace")
        self.base = rs
        real = rs.space
        down = real.down
        # bottom up, so that small inadmissible pairs are recorded first and
        # decide more of the larger unions without a closure
        singles = sorted((i for i in range(real.n) if i != real.bottom),
                         key=lambda i: (down[i].bit_count(), i))
        # closed down mask -> canonical antichain
        found = {down[real.bottom]: (real.bottom,)}
        found.update((down[i], (i,)) for i in singles)
        # bit y of bad[x]: the join of x and y is inadmissible; the first
        # level of the search tries every pair, so the table is complete
        # before any union of three or more reals
        bad = [0] * real.n
        frontier = [down[i] for i in singles]
        candidates = 0
        while frontier:
            fresh = []
            for d in frontier:
                anti = found[d]
                # two ANDs are the pair test: no bad pair lies within the
                # closed admissible d, nor within s and the reals below it
                bad_of_d = 0
                for m in anti:
                    bad_of_d |= bad[m]
                for s in singles:
                    if d >> s & 1:
                        continue
                    candidates += 1
                    if candidates > cap:
                        raise CapExceeded(
                            "completion candidate cap hit after %d elements"
                            % len(found))
                    if len(anti) == 1:  # the row grows at the first level
                        bad_of_d = bad[anti[0]]
                    if d | down[s] in found:  # a closed key is its own join
                        continue
                    j = None
                    if not (bad[s] & d or bad_of_d & down[s]):
                        j = sharpen(rs, anti + (s,))
                    if j is None:
                        if len(anti) == 1:
                            bad[anti[0]] |= 1 << s
                            bad[s] |= 1 << anti[0]
                        continue
                    key = 0
                    for x in j:
                        key |= down[x]
                    if key not in found:
                        found[key] = j
                        fresh.append(key)
            frontier = fresh
        keyed = sorted(found.items(), key=lambda kv: (len(kv[1]), kv[1]))
        self.elements = [u for _, u in keyed]
        self._keys = [d for d, _ in keyed]
        names = [self._name(u) for u in self.elements]
        self.space = StateSpace(names, inclusion_order(self._keys))
        self._full = (1 << self.space.n) - 1
        reals = [i for i in range(real.n) if i != real.bottom]
        star = {i: rs.star_of(i) for i in reals}
        self.embedding = RealStructureEmbedding(
            self.space, reals + [real.bottom], star)

    def _name(self, u):
        real = self.base.space
        if len(u) == 1:
            return real.names[u[0]]
        return "{" + ",".join(real.names[i] for i in u) + "}"

    # -- queries -----------------------------------------------------------

    def embed(self, real_id):
        """Real i is element i: the singletons sort first, by id."""
        return real_id

    def components(self, idx):
        """The canonical antichain of maximal reals below an element."""
        return self.elements[idx]

    def sharpening(self, members):
        """Least element dominating a set of reals U, or None if inadmissible,
        read off the built order: one up-set AND per member, one lookup.
        The elements are the closed admissible down-sets, by inclusion, and
        real x embeds as D(x), so those above U are the keys holding D(U),
        and each holds closure(U), the least closed set that does.  So the
        least is closure(U) when it is admissible; when it is not, no key
        exists, as a closed set holding closure(U) holds its x and x*."""
        up, above = self.space.up, self._full
        for m in members:  # real m is element m, see embed
            above &= up[m]
        return self.space._by_up[above] if above else None

    def real_id(self, idx):
        """The base element for a real completion element, else None."""
        return idx if idx < self.base.space.n else None

    def is_hidden(self, idx):
        return not self.embedding.is_real(idx)

    def meet(self, i, j):
        return self.space.meet(i, j)

    def join(self, i, j):
        """Canonical join, or None when inadmissible; read as in sharpening."""
        above = self.space.up[i] & self.space.up[j]
        return self.space._by_up[above] if above else None

    def serialize_element(self, idx):
        return sorted(self.base.space.names[i] for i in self.elements[idx])

    def __len__(self):
        return len(self.elements)


def build_completion(rs, cap=CANDIDATE_CAP):
    return OnticCompletion(rs, cap=cap)


def lift_morphism(comp_a, comp_b, f):
    """Lift a meet-preserving real map f (base-A id -> base-B id) to the
    completions; raises LiftError when some image antichain is inadmissible."""
    real_b = comp_b.base.space
    forward = []
    for idx in range(len(comp_a.elements)):
        image = [f(w) for w in comp_a.components(idx)]
        target = comp_b.sharpening(image)
        if target is None:
            raise LiftError(
                "image of %r is inadmissible" % comp_a.space.names[idx])
        forward.append(target)
    return forward
