"""No-broadcasting and Bell non-locality on completed tensor spaces.

The broadcast question asks for a real morphism copying every real state
into both legs of the self-tensor.  Simplex-like (deterministic) spaces
admit the diagonal copy map; any indeterministic space is blocked by a
forced-value clash at the bottom, replayed here explicitly.

The Bell pipeline builds the hidden state

    Sigma = (s1 (x) t1  meet  s2 (x) t2)  join  (s1* (x) bot  meet  bot (x) t1*),

computes its four measurement marginals in the boolean tensor square, and
asks for a global state matching all four: a state of the fourfold boolean
simplex power.  A state's marginal is a union over its outcome tuples, so
the tuples whose every pair projection lies inside the wanted marginal form
the largest candidate, and a global state exists exactly when that
candidate reproduces every marginal (`tensor.global_section`; possibilistic
non-locality in the sense of Abramsky and Brandenburger, New J. Phys. 13,
113036, 2011).  Absence of such a state is Bell non-locality.  Sigma is
closed on the tensor's real space and held as its canonical antichain, so
the tensor's completion is never enumerated.
"""

import functools

from .core_order import YES, NO, BOT, OUTCOME_MASK, InputError, bits
from . import chu
from .realspaces import bool_real_space, spin_space, is_deterministic
from .tensor import build_tensor, global_section, least_section
from .ontic import build_completion, sharpen
from .contextuality import find_joint_morphism


@functools.cache
def bool_square():
    """The boolean tensor square (15 elements), built once per process."""
    return build_tensor(bool_real_space(), bool_real_space())


# -- broadcasting -----------------------------------------------------------

def diagonal_broadcast(rs):
    """The copy morphism on a deterministic space: each real state goes to
    the meet of w (x) w over the pures w above it.  Returns the self-tensor
    and the forward map; raises when a trace identity fails."""
    ts = build_tensor(rs, rs)
    space = rs.space
    forward = []
    for sigma in range(space.n):
        ups = sorted(space.pures_above(sigma))
        forward.append(ts.index_of([(w, w) for w in ups]))
    for sigma in range(space.n):
        for side in (1, 2):
            if ts.partial_trace(forward[sigma], side) != sigma:
                raise InputError("diagonal broadcast fails the trace "
                                 "identity at %r" % space.names[sigma])
    return ts, forward


def _indeterministic_pair(rs):
    """Pures s1, s2 with s2 outside {s1, s1*}, in name order."""
    space = rs.space
    pures = sorted(space.pures())
    for s1 in pures:
        for s2 in pures:
            if s2 != s1 and s2 != rs.star_of(s1):
                return s1, s2
    return None


def broadcast_obstruction(rs):
    """Decide broadcastability of a real space.

    Deterministic spaces get the diagonal copy map, trace-verified.  For an
    indeterministic space the no-broadcasting proof is replayed: two sharp
    measurements force the images of s1, s1* and s2*, and the two ways of
    reaching the bottom disagree.  On spaces of at most 12 elements the
    obstruction is confirmed by an exhaustive joint-morphism search.
    """
    space = rs.space
    if is_deterministic(rs):
        ts, forward = diagonal_broadcast(rs)
        return {
            "broadcasts": True,
            "witness": {
                "kind": "diagonal",
                "map": {space.names[s]: ts.space.names[forward[s]]
                        for s in range(space.n)},
            },
        }
    s1, s2 = _indeterministic_pair(rs)
    s1s, s2s = rs.star_of(s1), rs.star_of(s2)
    bb = bool_square()
    forced = {
        space.names[s1]: bb.index_of([(YES, BOT)]),
        space.names[s1s]: bb.index_of([(NO, BOT)]),
        space.names[s2s]: bb.index_of([(BOT, NO)]),
    }
    via_pair = bb.meet(bb.index_of([(YES, BOT)]), bb.index_of([(NO, BOT)]))
    via_cross = bb.meet(bb.index_of([(NO, BOT)]), bb.index_of([(BOT, NO)]))
    witness = {
        "kind": "obstruction",
        "measurements": [space.names[s1], space.names[s2]],
        "forced": {k: bb.space.names[v] for k, v in forced.items()},
        "bottom_images": [bb.space.names[via_pair], bb.space.names[via_cross]],
    }
    out = {"broadcasts": False, "witness": witness}
    if space.n <= 12:
        comp = build_completion(rs)
        l1 = chu.make_effect(space, s1, s1s)
        l2 = chu.make_effect(space, s2, s2s)
        out["joint_morphism_absent"] = \
            find_joint_morphism(comp, [l1, l2]) is None
    return out


# -- the Bell scenario ------------------------------------------------------

class BellScenario(object):
    """A bipartite tensor with the candidate non-local state and the two
    pairs of sharp measurements l(s, s*) on each side.  sigma is the
    state's canonical antichain of tensor element ids; it is hidden, having
    two or more members."""

    def __init__(self, left, right, s1, s2, t1, t2, ts=None):
        self.left = left
        self.right = right
        if ts is None:
            ts = build_tensor(left, right)
        self.ts = ts
        ls, rsp = left.space, right.space
        for p, sp in ((s1, ls), (s2, ls), (t1, rsp), (t2, rsp)):
            if p not in sp.pures():
                raise InputError("scenario states must be pure")
        if s1 in (s2, left.star_of(s2)):
            raise InputError("left pures must avoid the star pair")
        if t1 in (t2, right.star_of(t2)):
            raise InputError("right pures must avoid the star pair")
        self.s1, self.s2, self.t1, self.t2 = s1, s2, t1, t2
        m1 = ts.index_of([(s1, t1), (s2, t2)])
        m2 = ts.index_of([(left.star_of(s1), rsp.bottom),
                          (ls.bottom, right.star_of(t1))])
        sigma = sharpen(ts.real_space, [m1, m2])
        if sigma is None or len(sigma) < 2:
            raise InputError("the Bell join did not produce a hidden state")
        self.sigma = sigma
        self.phi = (chu.make_effect(ls, s1, left.star_of(s1)),
                    chu.make_effect(ls, s2, left.star_of(s2)))
        self.rho = (chu.make_effect(rsp, t1, right.star_of(t1)),
                    chu.make_effect(rsp, t2, right.star_of(t2)))

    def serialize_sigma(self):
        return sorted(self.ts.space.names[i] for i in self.sigma)


def bell_scenario(na=2, nb=2):
    """The paper's default scenario on the spin pair (a, b) of each side."""
    left, right = spin_space(na), spin_space(nb)
    return BellScenario(left, right,
                        left.space.index("a"), left.space.index("b"),
                        right.space.index("a"), right.space.index("b"))


def _bool_image(rs, l):
    """Pure-to-boolean value table of a sharp measurement."""
    return {p: chu.evaluate(rs.space, l, p) for p in rs.space.pures()}


def measurement_image(scenario, l_left, l_right, members=None):
    """(f (x) g)(xi) for two sharp measurements, xi given by its canonical
    antichain of tensor element ids (sigma by default; a real state r is
    (r,)): map every member generator-by-generator into the boolean tensor
    square, then take the canonical antichain there.  Returns a single
    boolean tensor element."""
    ts = scenario.ts
    if members is None:
        members = scenario.sigma
    bb = bool_square()
    fmap = _bool_image(scenario.left, l_left)
    gmap = _bool_image(scenario.right, l_right)
    images = []
    for member in members:
        gens = [(fmap[p], gmap[q])
                for p, q in (ts.pure_pairs[k] for k in ts.cover_set(member))]
        images.append(bb.index_of(gens))
    anti = sharpen(bb.real_space, images)
    if anti is None or len(anti) != 1:
        raise InputError("measurement image is not a single boolean "
                         "tensor element")
    return anti[0]


def bell_marginals(scenario):
    """The four pairwise marginals Phi_13, Phi_14, Phi_23, Phi_24."""
    out = {}
    for a in (1, 2):
        for b in (3, 4):
            out["%d%d" % (a, b)] = measurement_image(
                scenario, scenario.phi[a - 1], scenario.rho[b - 3])
    return out


# -- the global-state test -------------------------------------------------

def lambda_search(phi13, phi14, phi23, phi24, bb=None):
    """The smallest state of the fourfold boolean simplex power whose four
    pair marginals are the given ones, as a mask, or None.  A cover mask of
    the boolean tensor square is the element's mask in the 2-factor power,
    so the marginals go to `global_section` as they are."""
    if bb is None:
        bb = bool_square()
    return least_section(*global_section(4, [
        (coords, bb.cover_mask(phi)) for coords, phi in zip(
            ((0, 2), (0, 3), (1, 2), (1, 3)), (phi13, phi14, phi23, phi24))]))


def constructive_lambda(scenario, members):
    """The paper's witness for a real bipartite state, given as its one-member
    antichain (r,): the meet over the state's pure-pair generators of
    f1(w) (x) f2(w) (x) g1(w') (x) g2(w').  Each term is the cylinder of
    the tuples that read its four values (either outcome at BOT), and a meet
    of states is the union of their tuples."""
    ts = scenario.ts
    if len(members) != 1:
        raise InputError("constructive witness needs a real state")
    rid = members[0]
    maps = [_bool_image(scenario.left, scenario.phi[0]),
            _bool_image(scenario.left, scenario.phi[1]),
            _bool_image(scenario.right, scenario.rho[0]),
            _bool_image(scenario.right, scenario.rho[1])]
    mask = 0
    for k in ts.cover_set(rid):
        p, q = ts.pure_pairs[k]
        values = (maps[0][p], maps[1][p], maps[2][q], maps[3][q])
        mask |= global_section(4, [((i,), OUTCOME_MASK[v])
                                   for i, v in enumerate(values)])[0]
    return mask


def _tuple_names(k, mask):
    """A state over k binary settings named by its outcome tuples, in
    product order: tuple t reads bit k - 1 - i at setting i, Y being 0."""
    return "{" + ",".join("⊗".join("YN"[t >> (k - 1 - i) & 1]
                                   for i in range(k))
                          for t in bits(mask)) + "}"


def bell_report(scenario):
    """JSON-ready summary: the state, its marginals, and the scan verdict."""
    bb = bool_square()
    phi = bell_marginals(scenario)
    lam = lambda_search(phi["13"], phi["14"], phi["23"], phi["24"])
    return {
        "sigma": scenario.serialize_sigma(),
        "phi": {k: bb.space.names[v] for k, v in sorted(phi.items())},
        "lambda": None if lam is None else _tuple_names(4, lam),
        "nonlocal": lam is None,
    }
