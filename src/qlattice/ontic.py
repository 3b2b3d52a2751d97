"""Completion of a real structure by hidden states.

A hidden state is represented by the antichain of maximal real states lying
below it.  The pre-closure of a set U of real elements collects the maximal
least upper bounds reachable from below U; iterating it to a fixed point
yields the canonical antichain.  An antichain is admissible when its closure
never puts a starred element below another member; the completed space
consists of exactly the canonical admissible antichains, ordered by
"every member refines into some member".

A pre-closure step reads the trace D(z) ∩ D(U) of each z, so it depends on
D(U) alone; it is extensive and monotone on down-sets, so closure(U) is the
least closed down-set holding D(U), and the closed down-sets form a closure
system (Caspard and Monjardet, Discrete Appl. Math. 127(2), 2003).  The
completion lists them by Close-by-One (Kuznetsov, 1993; Outrata and
Vychodil, Information Sciences 185(1), 2012): with the reals in a linear
extension, a closed set C reached by adding s0 tries each real s after s0,
and keeps closure(C ∪ ↓s) only when it adds no real before s, so only an s
minimal outside C can pass (Lindig, ICCS 2000) and each closed set is
listed once.  Such an s covers a member of C, so only C's frontier is
scanned, and a closure stops at the first step that adds a real before s.
Star reverses the order, so a closed set is admissible when it holds no
real with its star, and so are its closed subsets: the walk stops at an
inadmissible set, and a second goes on from those while they are no more
numerous than the elements and the cap holds (spin(n) has 4^n closed sets,
3^n admissible).  The build leaves both lists on the real
space as a closed-set index: by size, a linear extension of inclusion,
their antichains and per real the mask of the sets holding it.  Holding
all closed sets or the admissible ones, the index is down-closed, so the
least indexed set holding D(U) is closure(U) when there is one: one AND
per member and the lowest set bit; else closure takes the steps, as on a
space with no completion.

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

from itertools import combinations

from .core_order import InputError, CapExceeded, StateSpace, bits, transpose
from .realspaces import RealSpace, RealStructureEmbedding

# the default cap on the join candidates that a completion build tries
CANDIDATE_CAP = 10 ** 6


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
    below some member.  Meets exist, so that is when no c that z covers
    lies above the whole trace: when the trace, or as the gap lies below z
    the down-set of some member, meets every cover gap of z.  So the step
    is the OR of sat[u] over the members and one carry (see the module
    docstring; _step_tables builds the tables on a space's first step)."""
    return _close(space, members, once=True)


def _checked(space, members):
    """The members as sorted distinct ids; nonempty, in range, the bottom
    only alone."""
    members = sorted(set(map(int, members)))
    if not members:
        raise InputError("closure of an empty set")
    if members[0] < 0 or members[-1] >= space.n:
        raise InputError("element id out of range")
    if space.bottom in members and len(members) > 1:
        raise InputError("bottom element inside a closure argument")
    return members


def _close(space, members, stop=0, once=False):
    """The antichain of the closure of the members, or of one step once;
    None once a step's down-set, which only grows, meets stop.  The highest
    guard left is a maximal fixed element and clears those below; the pairs
    met by the fixed elements feed the next step, and a step meeting no new
    pair is the last, so only the answer is sorted."""
    if space._step_tables is None:
        space._step_tables = _step_tables(space)
    sat, blocks, lows, guards, owner, keep = space._step_tables
    down = space.down
    hit = 0
    for u in members:
        hit |= sat[u]
    while True:
        fixed = ((hit & blocks) + lows) & guards
        found, met = [], 0
        while fixed:
            z = owner[fixed.bit_length()]
            if stop and down[z] & stop:
                return None
            found.append(z)
            met |= sat[z]
            fixed &= keep[z]
        if met == hit or once:
            return tuple(sorted(found)) or (space.bottom,)
        hit = met


def closure_by_steps(space, members):
    """The iterated pre-closure: closure on a space with no completion, and
    the oracle that reads no index.  Each step grows the down-set."""
    return _close(space, _checked(space, members))


def closure(space, members):
    """The antichain of the least closed set holding the members' down-sets,
    off the closed-set index when one of its sets holds them, else by steps;
    an input holding the bottom is checked as the steps check it, and one
    holding an id out of range goes to the steps, which refuse it."""
    members = tuple(members)
    if space._closed is not None and members:
        if space.bottom in members:
            _checked(space, members)  # the bottom alone, or an InputError
        rows, antichains = space._closed
        above = -1
        try:
            for m in members:
                above &= rows[m] if m >= 0 else 0
        except IndexError:
            above = 0
        if above:
            return antichains[(above & -above).bit_length() - 1]
    return closure_by_steps(space, members)


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
    return is_star_free(rs, members) and not any(
        rs.space.bounded(pair) for pair in combinations(members, 2))


def sharpen(rs, members):
    """The canonical antichain of the closure of the non-bottom members, or
    None when it is not star-free; the bottom alone for no such member."""
    bottom = rs.space.bottom
    out = closure(rs.space, [m for m in members if m != bottom] or [bottom])
    return out if out == (bottom,) or is_star_free(rs, out) else None


def _closed_sets(rs, cap):
    """The admissible closed sets by down mask, the others or None when the
    second walk stops short of them, and the candidates, one per closure
    started; past cap in the first walk it raises.  earlier[s]: the reals
    before s.  Each node carries its frontier, the upper covers of its
    members, and a closure stops once it adds a real before s."""
    real = rs.space
    down, covers, bottom = real.down, real.covers, real.bottom
    before, earlier = 0, [0] * real.n
    for s in sorted(range(real.n), key=lambda s: down[s].bit_count()):
        earlier[s] = before
        before |= 1 << s
    found, over, roots, candidates = {down[bottom]: (bottom,)}, {}, [], 0
    stack = [(down[bottom], (), bottom, covers[bottom])]
    for part in found, over:
        while stack:
            d, anti, s0, front = stack.pop()
            for s in bits(front & ~earlier[s0] & ~d):
                if down[s] & ~d != 1 << s:  # s is not minimal outside d
                    continue
                if candidates >= cap or (part is over
                                         and len(over) > len(found)):
                    if part is found:
                        raise CapExceeded("completion candidate cap hit "
                                          "after %d elements" % len(found))
                    return found, None, candidates
                candidates += 1
                j = _close(real, anti + (s,), ~d & earlier[s])
                if j is None:
                    continue  # another branch lists this set
                key = 0
                for x in j:
                    key |= down[x]
                home = found if part is found and is_star_free(rs, j) else over
                home[key] = j
                grown = front
                for x in bits(key & ~d):
                    grown |= covers[x]
                (roots if home is not part else stack).append(
                    (key, j, s, grown))
        stack = roots
    return found, over, candidates


class OnticCompletion(object):
    """The completed space over a real structure, fully enumerated.

    Elements are canonical admissible antichains of non-bottom reals; the
    bottom is the singleton of the real bottom.  They are keyed by their
    closed down masks, and the order is inclusion of those masks.
    """

    def __init__(self, rs, cap=CANDIDATE_CAP):
        if not isinstance(rs, RealSpace):
            raise InputError("completion needs a RealSpace")
        self.base = rs
        real = rs.space
        found, over, self.candidates = _closed_sets(rs, cap)
        closed = sorted({**found, **(over or {})}.items(),
                        key=lambda kv: (kv[0].bit_count(), kv[1]))
        real._closed = (transpose([d for d, _ in closed], real.n),
                        [anti for _, anti in closed])
        keyed = sorted(found.items(), key=lambda kv: (len(kv[1]), kv[1]))
        self.elements = [u for _, u in keyed]
        self._keys = [d for d, _ in keyed]
        names = [self._name(u) for u in self.elements]
        self.space = StateSpace.from_keys(names, self._keys)
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
