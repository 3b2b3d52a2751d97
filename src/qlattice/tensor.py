"""Minimal tensor product of two real spaces.

An element of the product is canonically represented by its cover set: the
set of pure tensors lying above it, held as an int mask with bit k for pure
pair k.  Order is reverse inclusion of cover sets.  Whether a list of
generating pairs sits below a given pure tensor is decided by the expansion
formula: the full left meet must refine the left target, the full right
meet the right target, and for every proper split of the index set one of
the two sides must already refine its target.  The formula runs on masks:
with UL[x] the pure pairs whose left pure lies above x and UR[y] the same
on the right, the cover mask is UL[lm[full]] & UR[rm[full]] ANDed over the
proper splits S of UL[lm[S]] | UR[rm[full ^ S]], where lm[S] and rm[S] are
the left and right meets of the generators in S.

Every element is a meet of pure tensors, and its cover set is the closure
of theirs, so the enumeration lists the cover sets by Close-by-One, as the
ontic completion lists its closed sets: each from one parent, meeting in
one pure pair at a time, with the generators carried along.

A pair of simplex factors takes a fast path where every nonempty set of pure
tensors is an element.  Pure pairs are listed as the product of the sorted
pures of the two factors, which is the product order of outcome tuples in
`global_section`, so a cover mask of a tensor of two simplex factors is also
the element's mask over the tuples of its two coordinates.
"""

import functools

from .core_order import (YES, NO, InputError, CapExceeded, StateSpace, bits,
                         bool_bullet, transpose)
from . import chu
from .realspaces import RealSpace, is_deterministic, real_effects
from .ontic import CANDIDATE_CAP, OnticCompletion

# the default element cap of a tensor build; the order is one mask of n bits
# per element, quadratic in n, so this keeps a default build in seconds
ELEMENT_CAP = 10 ** 4


def _reduce_generators(space_a, space_b, gens):
    """Drop duplicate pairs and pairs refined componentwise by another."""
    gens = sorted(set((int(a), int(b)) for a, b in gens))
    up_a, up_b = space_a.up, space_b.up
    return [(a, b) for a, b in gens
            if not any((x, y) != (a, b) and up_a[x] >> a & 1
                       and up_b[y] >> b & 1 for x, y in gens)]


class TensorSpace(object):
    """The minimal tensor of two real spaces, fully enumerated."""

    def __init__(self, left, right, cap=ELEMENT_CAP):
        self.left = left
        self.right = right
        la, lb = left.space, right.space
        self.pure_pairs = [(pa, pb) for pa in la.pures() for pb in lb.pures()]
        self._pair_index = {pp: k for k, pp in enumerate(self.pure_pairs)}
        # bit k of _up_left[x] (_up_right[y]) is set when the left (right)
        # pure of pure pair k lies above x (y)
        self._up_left = [sum(1 << k for k, (pa, _) in enumerate(self.pure_pairs)
                             if up >> pa & 1) for up in la.up]
        self._up_right = [sum(1 << k for k, (_, pb) in enumerate(self.pure_pairs)
                              if up >> pb & 1) for up in lb.up]
        # real effects of both factors and generator columns, built by the
        # first congruence_profile call
        self._congruence = None
        if is_deterministic(left) and is_deterministic(right):
            self._enumerate_simplex(cap)
        else:
            self._enumerate_general(cap)
        self._install_space()

    # -- the expansion-formula order test ---------------------------------

    def normalize(self, gens):
        """Cover mask (bit k for pure pair k) of the meet of the given
        generating pairs."""
        return self._expand(_reduce_generators(self.left.space,
                                               self.right.space, gens))

    def _expand(self, gens):
        """The expansion formula on masks.  lm[S] and rm[S] are the left
        and right meets of the generators in the nonempty index set S (slot
        0 is unused), grown one generator at a time; pure pair k lies above
        the meet when it lies above both full meets and, for every proper
        split S, above the left meet of S or the right meet of its
        complement."""
        n = len(gens)
        if n == 0:
            raise InputError("empty generator list")
        if n > 20:
            raise CapExceeded("expansion formula over %d generators" % n)
        meet_a, meet_b = self.left.space.meet, self.right.space.meet
        lm, rm = [0], [0]
        for a, b in gens:
            lm += [a] + [meet_a(a, x) for x in lm[1:]]
            rm += [b] + [meet_b(b, y) for y in rm[1:]]
        ul = [self._up_left[x] for x in lm]
        ur = [self._up_right[y] for y in rm]
        full = len(lm) - 1
        out = ul[full] & ur[full]
        for s in range(1, full):
            if not out:
                break
            out &= ul[s] | ur[full ^ s]
        return out

    # -- enumeration -------------------------------------------------------

    def _enumerate_simplex(self, cap):
        count = (1 << len(self.pure_pairs)) - 1
        if count > cap:
            raise CapExceeded("simplex tensor needs %d elements (cap %d)"
                              % (count, cap))
        self._covers = list(range(1, count + 1))

    def _enumerate_general(self, cap):
        pure_pairs = self.pure_pairs
        covers = []
        stack = [(0, (), 0)]  # cover set, its generators, first pair to add
        while stack:
            u, gens, first = stack.pop()
            for k in range(first, len(pure_pairs)):
                if u >> k & 1:
                    continue
                extended = gens + (pure_pairs[k],)
                w = self._expand(extended)
                if w & ~u & ((1 << k) - 1):
                    continue  # another branch lists this set
                if len(covers) >= cap:
                    raise CapExceeded("tensor enumeration cap %d hit" % cap)
                covers.append(w)
                stack.append((w, extended, k + 1))
        self._covers = sorted(covers, key=lambda u: (u.bit_count(), bits(u)))

    def _install_space(self):
        covers = self._covers
        self._cover_index = {u: i for i, u in enumerate(covers)}
        full = (1 << len(self.pure_pairs)) - 1
        # _rect[x][y]: the element x⊗y, whose cover set is the rectangle of
        # the pure pairs above x and above y
        self._rect = [[self._cover_index[ul & ur] for ur in self._up_right]
                      for ul in self._up_left]
        names = self._labels(covers)
        space = StateSpace.from_keys(names, covers, reverse=True)
        star = {}
        bottom = self._cover_index[full]
        # the star of pure pair (pa, pb) covers the pure pairs above pa* or
        # above pb*
        star_cover = [self._up_left[self.left.star_of(pa)]
                      | self._up_right[self.right.star_of(pb)]
                      for pa, pb in self.pure_pairs]
        for i, u in enumerate(covers):
            if i == bottom:
                continue
            s = full
            for k in bits(u):
                s &= star_cover[k]
            star[i] = self._cover_index[s]
        self.space = space
        self.real_space = RealSpace(space, star)

    # -- labels ------------------------------------------------------------

    def _labels(self, covers):
        """Each element's name: the maximal rectangles x⊗y inside its cover
        set u, joined by ⊓ in (x, y) order.  The rectangles inside u hold no
        pair outside it (holds[k]: those holding pure pair k), and over[r]
        is the rectangles strictly containing r (rectangles are distinct,
        as a real space is generated by its pures)."""
        la, lb = self.left.space, self.right.space
        xy = [(x, y) for x in range(la.n) for y in range(lb.n)]
        rects = [covers[self._rect[x][y]] for x, y in xy]
        holds = transpose(rects, len(self.pure_pairs))
        over = [functools.reduce(int.__and__, map(holds.__getitem__,
                                                  bits(rect))) & ~(1 << r)
                for r, rect in enumerate(rects)]
        full, names = (1 << len(self.pure_pairs)) - 1, []
        for u in covers:
            inside = (1 << len(rects)) - 1
            for k in bits(full & ~u):
                inside &= ~holds[k]
            names.append(" ⊓ ".join(
                "%s⊗%s" % (la.names[xy[r][0]], lb.names[xy[r][1]])
                for r in bits(inside) if not over[r] & inside))
        return names

    # -- queries -----------------------------------------------------------

    def index_of(self, gens):
        """Element id of the meet of the given generating pairs, read off
        the built order: (x, y) is the element x⊗y (_rect), and the order is
        reverse inclusion of cover sets, so the meet is the greatest lower
        bound of the rectangles, whose down-set is the AND of theirs."""
        down, rect, below = self.space.down, self._rect, -1
        for a, b in gens:
            below &= down[rect[a][b]]
        if below < 0:
            raise InputError("empty generator list")
        return self.space._by_down[below]

    def cover_mask(self, idx):
        return self._covers[idx]

    def cover_set(self, idx):
        return frozenset(bits(self._covers[idx]))

    def pure_tensor(self, pa, pb):
        return self._cover_index[1 << self._pair_index[(pa, pb)]]

    def pure_pair_of(self, idx):
        u = self._covers[idx]
        if u & (u - 1) == 0:
            return self.pure_pairs[u.bit_length() - 1]
        return None

    def meet(self, i, j):
        return self.space.meet(i, j)

    def partial_trace(self, idx, side):
        if side not in (1, 2):
            raise InputError("trace side must be 1 or 2")
        factor = self.left.space if side == 1 else self.right.space
        return factor.meet_all(self.pure_pairs[k][side - 1]
                               for k in bits(self._covers[idx]))

    def serialize_element(self, idx):
        la, lb = self.left.space, self.right.space
        return sorted([la.names[self.pure_pairs[k][0]],
                       lb.names[self.pure_pairs[k][1]]]
                      for k in bits(self._covers[idx]))

    def __len__(self):
        return len(self._covers)


def build_tensor(rs_a, rs_b, cap=ELEMENT_CAP):
    return TensorSpace(rs_a, rs_b, cap=cap)


def nfold_tensor(factors, cap=ELEMENT_CAP):
    """Left fold of pairwise products; returns the final TensorSpace."""
    if len(factors) < 2:
        raise InputError("n-fold tensor needs at least two factors")
    out = build_tensor(factors[0], factors[1], cap=cap)
    for f in factors[2:]:
        out = build_tensor(out.real_space, f, cap=cap)
    return out


def indeterministic_tensor(rs_a, rs_b, cap=CANDIDATE_CAP):
    """Ontic completion of the minimal tensor."""
    ts = build_tensor(rs_a, rs_b)
    return ts, OnticCompletion(ts.real_space, cap=cap)


def congruence_profile(ts, gens):
    """The bullet-meet evaluation of a generator set against every real
    effect pair, as (Y mask, N mask), bit k for the k-th effect pair.

    It is the elementwise meet of the generators' columns, a column being
    the bullet evaluation of one generating pair against every effect pair:
    outcomes meet to Y (N) when all are Y (N), so it is one AND per mask.
    The effects and the columns are built once per tensor; more than 4,096
    effect pairs exceed the cap."""
    if ts._congruence is None:
        ts._congruence = (real_effects(ts.left), real_effects(ts.right), {})
    effects_a, effects_b, columns = ts._congruence
    if len(effects_a) * len(effects_b) > 4096:
        raise CapExceeded("congruence oracle over %d effect pairs"
                          % (len(effects_a) * len(effects_b)))
    yes = no = -1
    for a, b in gens:
        col = columns.get((a, b))
        if col is None:
            outcomes = [bool_bullet(chu.evaluate(ts.left.space, la, a),
                                    chu.evaluate(ts.right.space, lb, b))
                        for la in effects_a for lb in effects_b]
            col = columns[(a, b)] = tuple(
                sum(1 << k for k, v in enumerate(outcomes) if v == want)
                for want in (YES, NO))
        yes &= col[0]
        no &= col[1]
    if yes < 0:
        raise InputError("meet of an empty family of outcomes")
    return yes, no


def congruence_oracle(ts, gens1, gens2):
    """Brute-force check that two generator sets define the same element:
    equality of their congruence profiles."""
    return congruence_profile(ts, gens1) == congruence_profile(ts, gens2)


# -- global sections over binary settings -------------------------------------

@functools.cache
def _cells(k, coords):
    """One mask over the 2**k outcome tuples of k binary settings for each
    sub-tuple of coords, in product order: the tuples that read that
    sub-tuple at coords, as an AND of one half mask per setting."""
    full = (1 << (1 << k)) - 1
    cells = [full]
    for i in coords:
        ones = sum(1 << t for t in range(1 << k) if t >> (k - 1 - i) & 1)
        cells = [c & h for c in cells for h in (full ^ ones, ones)]
    return tuple(cells)


def global_section(k, marginals):
    """S_max for marginals over k binary settings, and the cells it must
    meet.  A state is a nonempty mask over the outcome tuples, bit
    t = sum x_i 2**(k-1-i) for tuple x of outcome ids (YES or NO), in
    product order.  A marginal is (coords, mask), with mask over the
    sub-tuples of coords in the same order (for a pair, the boolean tensor
    square's cover mask).  A state's marginal is a union over its tuples,
    so every matching state lies inside S_max, the tuples whose every
    projection is wanted, and one exists exactly when S_max meets every
    wanted cell."""
    s_max = (1 << (1 << k)) - 1
    need = []
    for coords, mask in marginals:
        cells = [c for s, c in enumerate(_cells(k, tuple(coords)))
                 if mask >> s & 1]
        need += cells
        s_max &= sum(cells)  # the cells are disjoint: the sum is the union
    return s_max, need


def least_section(s_max, cells):
    """The smallest nonempty state inside s_max meeting every cell, or None.
    Dropping from the top down each tuple whose cells the rest still meet
    keeps just the lowest tuple of each cell that no kept tuple above it
    meets, so the cells go by their lowest tuple, highest first."""
    if not s_max or not all(s_max & cell for cell in cells):
        return None
    least = 0
    for low, cell in sorted(((s_max & c & -(s_max & c), c) for c in cells),
                            reverse=True):
        if not least & cell:
            least |= low
    return least or s_max & -s_max
