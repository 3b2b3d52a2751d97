"""Minimal tensor product of two real spaces.

An element of the product is canonically represented by its cover set: the
set of pure tensors lying above it, held as an int mask with bit k for pure
pair k.  Order is reverse inclusion of cover sets.  Whether a list of
generating pairs sits below a given pure tensor is decided by the expansion
formula: the full left meet must refine the left target, the full right
meet the right target, and for every proper split of the index set one of
the two sides must already refine its target.

A pair of simplex factors takes a fast path where every nonempty set of pure
tensors is an element; `SimplexPower` extends that to n-fold powers as plain
bitmasks without ever materializing a dense order matrix.  Pure pairs are
listed as the product of the sorted pures of the two factors, exactly as
`SimplexPower` lists its pure tuples, so a cover mask of a tensor of two
simplex factors is also the element's mask in the 2-factor power.
"""

from itertools import product

import numpy as np

from .core_order import (InputError, CapExceeded, StateSpace, bits,
                         inclusion_order, bool_meet_all, bool_bullet)
from . import chu
from .realspaces import RealSpace, is_deterministic, real_effects


def _reduce_generators(space_a, space_b, gens):
    """Drop duplicate pairs and pairs refined componentwise by another."""
    gens = sorted(set((int(a), int(b)) for a, b in gens))
    return [(a, b) for a, b in gens
            if not any((x, y) != (a, b)
                       and space_a.leq[x, a] and space_b.leq[y, b]
                       for x, y in gens)]


class TensorSpace(object):
    """The minimal tensor of two real spaces, fully enumerated."""

    def __init__(self, left, right, cap=10 ** 5):
        self.left = left
        self.right = right
        la, lb = left.space, right.space
        self.pure_pairs = [(pa, pb) for pa in la.pures() for pb in lb.pures()]
        self._pair_index = {pp: k for k, pp in enumerate(self.pure_pairs)}
        self._pure_a = sorted(la.pures())
        self._pure_b = sorted(lb.pures())
        self._ta = np.array([pp[0] for pp in self.pure_pairs])
        self._tb = np.array([pp[1] for pp in self.pure_pairs])
        self._norm_cache = {}
        # real effects of both factors and generator columns, built by the
        # first congruence_profile call
        self._congruence = None
        if is_deterministic(left) and is_deterministic(right):
            self._enumerate_simplex(cap)
        else:
            self._enumerate_meets(cap)
        self._install_space()

    # -- the expansion-formula order test ---------------------------------

    def normalize(self, gens):
        """Cover mask (bit k for pure pair k) of the meet of the given
        generating pairs."""
        gens = _reduce_generators(self.left.space, self.right.space, gens)
        key = tuple(gens)
        hit = self._norm_cache.get(key)
        if hit is not None:
            return hit
        ok = np.packbits(self._dominated_targets(gens), bitorder="little")
        out = int.from_bytes(ok.tobytes(), "little")
        self._norm_cache[key] = out
        return out

    def _dominated_targets(self, gens):
        la, lb = self.left.space, self.right.space
        n = len(gens)
        if n == 0:
            raise InputError("empty generator list")
        if n > 20:
            raise CapExceeded("expansion formula over %d generators" % n)
        size = 1 << n
        lm = np.zeros(size, dtype=np.int64)
        rm = np.zeros(size, dtype=np.int64)
        for b in range(n):
            half = 1 << b
            lm[half:2 * half] = la._meet_table[lm[:half], gens[b][0]]
            rm[half:2 * half] = lb._meet_table[rm[:half], gens[b][1]]
            lm[half] = gens[b][0]
            rm[half] = gens[b][1]
        l_ok = la.leq[lm[1:]][:, self._ta]
        r_ok = lb.leq[rm[1:]][:, self._tb]
        ok = l_ok[-1] & r_ok[-1]
        if n > 1:
            ok &= (l_ok[:-1] | r_ok[:-1][::-1]).all(axis=0)
        return ok

    # -- enumeration -------------------------------------------------------

    def _enumerate_simplex(self, cap):
        count = (1 << len(self.pure_pairs)) - 1
        if count > cap:
            raise CapExceeded("simplex tensor needs %d elements (cap %d)"
                              % (count, cap))
        self._covers = list(range(1, count + 1))

    def _enumerate_meets(self, cap):
        gens_of = {}
        queue = []
        for k, pp in enumerate(self.pure_pairs):
            u = 1 << k
            gens_of[u] = [pp]
            queue.append(u)
        seen_pairs = set()
        while queue:
            u = queue.pop()
            known = list(gens_of.keys())
            for v in known:
                if u == v:
                    continue
                pair_key = (u, v) if u < v else (v, u)
                if pair_key in seen_pairs:
                    continue
                seen_pairs.add(pair_key)
                w = self.normalize(gens_of[u] + gens_of[v])
                if w not in gens_of:
                    if len(gens_of) + 1 > cap:
                        raise CapExceeded(
                            "tensor enumeration cap %d hit" % cap)
                    gens_of[w] = _reduce_generators(
                        self.left.space, self.right.space,
                        gens_of[u] + gens_of[v])
                    queue.append(w)
        self._covers = sorted(gens_of.keys(),
                              key=lambda u: (u.bit_count(), bits(u)))

    def _install_space(self):
        covers = self._covers
        self._cover_index = {u: i for i, u in enumerate(covers)}
        full = (1 << len(self.pure_pairs)) - 1
        names = [self._label(u) for u in covers]
        # reverse inclusion of cover sets
        space = StateSpace(names, inclusion_order(covers).T)
        star = {}
        bottom = self._cover_index[full]
        star_cover = [self._pure_pair_star_cover(k)
                      for k in range(len(self.pure_pairs))]
        for i, u in enumerate(covers):
            if i == bottom:
                continue
            s = full
            for k in bits(u):
                s &= star_cover[k]
            star[i] = self._cover_index[s]
        self.space = space
        self.real_space = RealSpace(space, star)

    def _pure_pair_star_cover(self, k):
        pa, pb = self.pure_pairs[k]
        sa = self.left.star_of(pa)
        sb = self.right.star_of(pb)
        la, lb = self.left.space, self.right.space
        return sum(1 << j for j, (qa, qb) in enumerate(self.pure_pairs)
                   if la.leq[sa, qa] or lb.leq[sb, qb])

    # -- labels ------------------------------------------------------------

    def _rectangles(self, u):
        """Maximal closed rectangles inside a cover set, as (x, y) pairs of
        factor elements."""
        la, lb = self.left.space, self.right.space
        rects = []
        for x in range(la.n):
            ax = [p for p in self._pure_a if la.leq[x, p]]
            for y in range(lb.n):
                by = [q for q in self._pure_b if lb.leq[y, q]]
                rect = sum(1 << self._pair_index[(p, q)]
                           for p in ax for q in by)
                if rect and rect & ~u == 0:
                    rects.append(((x, y), rect))
        return [(xy, rect) for xy, rect in rects
                if not any(other != rect and rect & ~other == 0
                           for _, other in rects)]

    def _label(self, u):
        la, lb = self.left.space, self.right.space
        rects = sorted(xy for xy, _ in self._rectangles(u))
        terms = ["%s⊗%s" % (la.names[x], lb.names[y]) for x, y in rects]
        return " ⊓ ".join(terms)

    # -- queries -----------------------------------------------------------

    def index_of(self, gens):
        """Element id of the meet of the given generating pairs."""
        u = self.normalize(gens)
        return self._cover_index[u]

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

    def star(self, idx):
        return self.real_space.star_of(idx)

    def serialize_element(self, idx):
        la, lb = self.left.space, self.right.space
        return sorted([la.names[self.pure_pairs[k][0]],
                       lb.names[self.pure_pairs[k][1]]]
                      for k in bits(self._covers[idx]))

    def __len__(self):
        return len(self._covers)


def build_tensor(rs_a, rs_b, cap=10 ** 5):
    return TensorSpace(rs_a, rs_b, cap=cap)


def nfold_tensor(factors, cap=10 ** 5):
    """Left fold of pairwise products; returns the final TensorSpace."""
    if len(factors) < 2:
        raise InputError("n-fold tensor needs at least two factors")
    out = build_tensor(factors[0], factors[1], cap=cap)
    for f in factors[2:]:
        out = build_tensor(out.real_space, f, cap=cap)
    return out


def indeterministic_tensor(rs_a, rs_b, cap=10 ** 6):
    """Ontic completion of the minimal tensor."""
    from .ontic import OnticCompletion
    ts = build_tensor(rs_a, rs_b)
    return ts, OnticCompletion(ts.real_space, cap=cap)


def congruence_profile(ts, gens, effect_cap=4096):
    """The bullet-meet evaluation of a generator set against every real
    effect pair, as a tuple in effect-pair order.

    It is the elementwise meet of the generators' columns, a column being
    the bullet evaluation of one generating pair against every effect
    pair; the effects and the columns are built once per tensor."""
    if ts._congruence is None:
        ts._congruence = (real_effects(ts.left), real_effects(ts.right), {})
    effects_a, effects_b, columns = ts._congruence
    if len(effects_a) * len(effects_b) > effect_cap:
        raise CapExceeded("congruence oracle over %d effect pairs"
                          % (len(effects_a) * len(effects_b)))
    cols = []
    for a, b in gens:
        col = columns.get((a, b))
        if col is None:
            col = columns[(a, b)] = tuple(
                bool_bullet(chu.evaluate(ts.left.space, la, a),
                            chu.evaluate(ts.right.space, lb, b))
                for la in effects_a for lb in effects_b)
        cols.append(col)
    if not cols:
        raise InputError("meet of an empty family of outcomes")
    return tuple(map(bool_meet_all, zip(*cols)))


def congruence_oracle(ts, gens1, gens2, effect_cap=4096):
    """Brute-force check that two generator sets define the same element:
    equality of their congruence profiles."""
    return (congruence_profile(ts, gens1, effect_cap)
            == congruence_profile(ts, gens2, effect_cap))


class SimplexPower(object):
    """n-fold tensor power of simplex factors, as bitmasks over pure tuples.

    Element masks are nonzero ints; bit t is set when pure tuple t lies
    above the element.  Order is mask superset, meet is bitwise or, join is
    bitwise and when nonzero, star is complement.
    """

    def __init__(self, factors):
        self.factors = list(factors)
        self.pure_lists = [sorted(f.space.pures()) for f in self.factors]
        self.tuples = list(product(*self.pure_lists))
        self._tuple_index = {t: k for k, t in enumerate(self.tuples)}
        self.count = len(self.tuples)
        if self.count > 30:
            raise CapExceeded("simplex power over %d pure tuples" % self.count)
        self.full = (1 << self.count) - 1

    def pure_mask(self, t):
        return 1 << self._tuple_index[tuple(t)]

    def leq(self, x, y):
        return x | y == x

    def meet(self, x, y):
        return x | y

    def join(self, x, y):
        z = x & y
        return z if z else None

    def star(self, x):
        if x == self.full:
            raise InputError("star of the bottom element")
        return self.full ^ x

    def embed_factors(self, masks_per_factor):
        """Tensor of one per-factor pure set each: the product mask."""
        out = 0
        for k, t in enumerate(self.tuples):
            if all(t[i] in masks_per_factor[i] for i in range(len(self.factors))):
                out |= 1 << k
        return out

    def project(self, mask, coords):
        """Partial trace onto the chosen coordinates, as a mask of the
        corresponding SimplexPower."""
        sub = SimplexPower([self.factors[i] for i in coords])
        out = 0
        for k, t in enumerate(self.tuples):
            if mask >> k & 1:
                out |= sub.pure_mask(tuple(t[i] for i in coords))
        return out

    def name(self, mask):
        parts = []
        for k, t in enumerate(self.tuples):
            if mask >> k & 1:
                parts.append("⊗".join(self.factors[i].space.names[t[i]]
                                      for i in range(len(self.factors))))
        return "{" + ",".join(parts) + "}"
