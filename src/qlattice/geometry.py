r"""Projective and orthogonal geometry over a completed tensor of spin
factors.

Points are the pure product states together with two families of hidden
states: joins mu* |_| (nu /\ phi) over pure triples (the wide family), and
the subfamily where mu is one of nu, phi (the narrow family).  Consistency
is a binary compatibility relation; its maximal cliques play the role of
charts on which a ternary colinearity relation is defined.  The verifiers
below check the Veblen-Young incidence axioms on those charts, the
orthogonality axioms on the narrow family, and the structural lemmas tying
orthogonal completeness to the narrow family.
"""

from itertools import combinations, permutations
import random

from .core_order import InputError, bits
from .realspaces import ortho_matrix


def flat_coordinates(chain):
    """Factor-pure coordinate tuple of every pure of the final stage."""
    def unfold(stage, pid):
        pair = chain[stage].pure_pair_of(pid)
        if pair is None:
            raise InputError("element %d of stage %d is not pure" % (pid, stage))
        pa, pb = pair
        head = unfold(stage - 1, pa) if stage > 0 else (pa,)
        return head + (pb,)
    final = chain[-1]
    return {p: unfold(len(chain) - 1, p) for p in final.real_space.pures()}


class GeometrySet(object):
    """Point set and relations of one variant, with cached order data.

    All points are ids in the completion's ambient space.  Both hidden
    families are enumerated regardless of the variant so that the wide
    geometry can consult the narrow subfamily.  Relations are int masks
    over those ids: the cover rows of the base and the completion, and for
    each point the mask of the points consistent with it (itself included).
    """

    def __init__(self, completion, chain, variant="narrow"):
        if variant not in ("wide", "narrow"):
            raise InputError("unknown geometry variant %r" % (variant,))
        if not isinstance(chain, (list, tuple)):
            chain = [chain]
        if chain[-1].real_space is not completion.base \
                and chain[-1].real_space.space is not completion.base.space:
            raise InputError("completion does not sit over the chain's top")
        self.completion = completion
        self.chain = list(chain)
        self.variant = variant
        self.coords = flat_coordinates(self.chain)
        self.n_factors = len(next(iter(self.coords.values())))
        self.factors = self._factor_list()

        base = completion.base.space
        hat = completion.space
        self._cov_real = base.covers
        self._cov_hat = hat.covers
        self.perp = ortho_matrix(completion.embedding)

        self.pure_points = tuple(sorted(completion.embed(p)
                                        for p in base.pures()))
        # the pure point at each coordinate tuple, for starred_partners
        self._pure_at = {self.coords[completion.real_id(p)]: p
                         for p in self.pure_points}
        self.hidden_wide, self.hidden_narrow = self._enumerate_hidden()
        hidden = self.hidden_wide if variant == "wide" \
            else self.hidden_narrow
        self.points = tuple(sorted(set(self.pure_points) | hidden))
        self._point_mask = sum(1 << p for p in self.points)
        self._cons = self._consistency_masks()
        self._cliques = None
        self._lines = {}

    def _factor_list(self):
        out = [self.chain[0].left]
        out.extend(ts.right for ts in self.chain)
        return out

    # -- construction --------------------------------------------------------

    def _enumerate_hidden(self):
        comp = self.completion
        base = comp.base
        pures = base.space.pures()
        wide, narrow = set(), set()
        for nu, phi in combinations(pures, 2):
            gamma = base.space.meet(nu, phi)
            row = self._cov_real[gamma]
            if not row >> nu & row >> phi & 1:
                continue
            for mu in pures:
                if base.space.leq[base.star_of(mu), gamma]:
                    continue
                chi = comp.sharpening([base.star_of(mu), gamma])
                if chi is None or not comp.is_hidden(chi):
                    continue
                wide.add(chi)
                if mu == nu or mu == phi:
                    narrow.add(chi)
        return frozenset(wide), frozenset(narrow)

    def _consistency_masks(self):
        pts = self.points
        out = {p: 1 << p for p in pts}
        for i, x in enumerate(pts):
            for y in pts[i + 1:]:
                if self._consistent_raw(x, y):
                    out[x] |= 1 << y
                    out[y] |= 1 << x
        return out

    def _consistent_raw(self, x, y):
        hx, hy = self.is_hidden(x), self.is_hidden(y)
        comp = self.completion
        if not hx and not hy:
            return self.wr(x, y)
        if hx and hy:
            shared = set(comp.components(x)) & set(comp.components(y))
            m = comp.meet(x, y)
            return any(comp.embed(e) == m for e in shared)
        chi, sigma = (x, y) if hx else (y, x)
        s_real = comp.real_id(sigma)
        return any(self._cov_real[e] >> s_real & 1
                   for e in comp.components(chi))

    # -- basic queries --------------------------------------------------------

    def is_hidden(self, x):
        return self.completion.is_hidden(x)

    def wr(self, x, y):
        """Pure points whose coordinates differ in at most two factors."""
        cx = self.coords[self.completion.real_id(x)]
        cy = self.coords[self.completion.real_id(y)]
        return sum(a != b for a, b in zip(cx, cy)) <= 2

    def consistent(self, x, y):
        return bool(self._cons[x] >> y & 1)

    def colinear(self, a, b, c):
        """b = c, or a covers the completion meet of b and c."""
        if b == c:
            return True
        m = self.completion.meet(b, c)
        return bool(self._cov_hat[m] >> a & 1)

    def orthogonal(self, x, y):
        return bool(self.perp[x, y])

    def antipodal(self, x, y):
        """Pure points whose coordinates are star-related in every factor
        where they differ, with at least one differing factor."""
        rx, ry = self.completion.real_id(x), self.completion.real_id(y)
        if rx is None or ry is None:
            return False
        cx, cy = self.coords[rx], self.coords[ry]
        diff = [i for i in range(self.n_factors) if cx[i] != cy[i]]
        return len(diff) == 2 and all(self.factors[i].star_of(cx[i]) == cy[i]
                                      for i in diff)

    def consistency_cover(self):
        """Maximal pairwise-consistent point sets, deterministically ordered."""
        if self._cliques is None:
            adj = {p: m & ~(1 << p) for p, m in self._cons.items()}
            self._cliques = sorted(tuple(bits(c))
                                   for c in _bron_kerbosch(adj))
        return self._cliques

    # -- lines and starred partners --------------------------------------------

    def line(self, a, b):
        key = (a, b) if a <= b else (b, a)
        hit = self._lines.get(key)
        if hit is None:
            m = self.completion.meet(a, b)
            hit = frozenset(bits(self._cov_hat[m] & self._point_mask)) \
                | {a, b}
            self._lines[key] = hit
        return hit

    def starred_partners(self, x):
        """Pure points obtained from x by starring exactly one factor
        coordinate, keyed by the factor position."""
        rx = self.completion.real_id(x)
        if rx is None:
            return {}
        t = self.coords[rx]
        out = {}
        for i in range(self.n_factors):
            s = list(t)
            s[i] = self.factors[i].star_of(t[i])
            hit = self._pure_at.get(tuple(s))
            if hit is not None:
                out[i] = hit
        return out

    # -- hidden-point anatomy --------------------------------------------------

    def hidden_profile(self, chi):
        """The distinguished component gamma of a narrow hidden point and the
        oriented pure pair above every component; None when the point does
        not decompose that way."""
        comp = self.completion
        base = comp.base
        hat_leq = comp.space.leq
        pairs = {}
        for e in comp.components(chi):
            above = [p for p in base.space.pures() if base.space.leq[e, p]]
            if len(above) != 2:
                return None
            pairs[e] = above
        gammas = []
        for e, (p, q) in pairs.items():
            for phi in (p, q):
                if hat_leq[comp.embed(base.star_of(phi)), chi]:
                    gammas.append((e, phi))
        if len(gammas) != 1:
            return None
        gamma, phi_g = gammas[0]
        psi_g = next(p for p in pairs[gamma] if p != phi_g)
        oriented = {gamma: (phi_g, psi_g)}
        for e, (p, q) in pairs.items():
            if e == gamma:
                continue
            # orientation rule: the star of phi sits below psi
            if base.space.leq[base.star_of(p), q]:
                oriented[e] = (p, q)
            elif base.space.leq[base.star_of(q), p]:
                oriented[e] = (q, p)
            else:
                return None
        return gamma, oriented

    # -- orthogonal completeness ------------------------------------------------

    def orthogonally_complete(self, subset):
        subset = sorted(subset)
        for a, b, c in permutations(subset, 3):
            if b < c and self.colinear(a, b, c):
                if not (self.perp[a, b] or self.perp[a, c]
                        or self.perp[b, c]):
                    return False
        for lam, (a, b), (c, d) in _quadrangles(self, subset):
            quad = (a, b, c, d)
            if not _no_inner_colinearity(self, quad):
                continue
            if not any(sum(bool(self.perp[x, y])
                           for y in quad if y != x) >= 2 for x in quad):
                return False
        return True

    def __len__(self):
        return len(self.points)


def build_geometry(completion, chain, variant="narrow"):
    return GeometrySet(completion, chain, variant=variant)


# -- shared machinery ---------------------------------------------------------

def _bron_kerbosch(neighbors):
    """Maximal cliques, as vertex masks, of the graph whose vertex v has
    the neighbour mask neighbors[v] (bit u set when u is adjacent to v,
    never v itself), with deterministic max-degree pivoting."""
    out = []

    def expand(r, p, x):
        if not p and not x:
            out.append(r)
            return
        pivot = max(bits(p | x),
                    key=lambda u: (p & neighbors[u]).bit_count())
        for v in bits(p & ~neighbors[pivot]):
            expand(r | 1 << v, p & neighbors[v], x & neighbors[v])
            p &= ~(1 << v)
            x |= 1 << v

    expand(0, sum(1 << v for v in neighbors), 0)
    return out


def _colinear_pairs(G, subset, lam):
    """Unordered pairs (a, b) of the subset, both distinct from lam, whose
    completion meet is covered by lam."""
    out = []
    for a, b in combinations(sorted(subset), 2):
        if lam in (a, b):
            continue
        if G._cov_hat[G.completion.meet(a, b)] >> lam & 1:
            out.append((a, b))
    return out


def _quadrangles(G, subset):
    """Configurations (lam, (a,b), (c,d)) inside the subset: lam covers both
    meets and the four flank points are distinct."""
    for lam in subset:
        pairs = _colinear_pairs(G, subset, lam)
        for (a, b), (c, d) in combinations(pairs, 2):
            if len({a, b, c, d}) == 4:
                yield lam, (a, b), (c, d)


def _quad_is_generic(G, quad):
    """The six pairwise completion meets of the quadrangle differ."""
    meets = [G.completion.meet(x, y) for x, y in combinations(quad, 2)]
    return len(set(meets)) == len(meets)


def _no_inner_colinearity(G, quad):
    for a, b, c in permutations(quad, 3):
        if b < c and a not in (b, c) and G.colinear(a, b, c):
            return False
    return True


def _third_points(G, a, b):
    """Points covering the completion meet of a and b, each pairwise
    consistent with both, in id order."""
    m = G.completion.meet(a, b)
    return bits(G._cov_hat[m] & G._point_mask & G._cons[a] & G._cons[b])


def _diagonal_witnesses(G, quad, pool=None):
    """Points (of the pool mask, when given) colinear with both diagonal
    pairs of the quadrangle and consistent with all four corners, in id
    order."""
    s1, s2, s3, s4 = quad
    m13 = G.completion.meet(s1, s3)
    m24 = G.completion.meet(s2, s4)
    hits = G._cov_hat[m13] & G._cov_hat[m24] \
        & (G._point_mask if pool is None else pool)
    for s in quad:
        hits &= G._cons[s]
    return bits(hits)


def _paper_diagonal_witness(G, quad):
    """The explicit quadrangle witness: star(xi) joined with the meet of the
    second diagonal, for a pure xi above the star of the first diagonal's
    meet and not above the second's."""
    comp = G.completion
    base = comp.base
    s1, s2, s3, s4 = quad
    for x, y in ((s1, s3), (s2, s4)):
        if comp.real_id(x) is None or comp.real_id(y) is None:
            return None
    m13 = base.space.meet(comp.real_id(s1), comp.real_id(s3))
    m24 = base.space.meet(comp.real_id(s2), comp.real_id(s4))
    if base.space.bottom in (m13, m24):
        return None
    ref = G.coords[comp.real_id(s1)]
    for xi in base.space.pures():
        if not base.space.leq[base.star_of(m13), xi]:
            continue
        if base.space.leq[base.star_of(m24), xi]:
            continue
        if sum(a != b for a, b in zip(G.coords[xi], ref)) > 2:
            continue
        chi = comp.sharpening([base.star_of(xi), m24])
        if chi is not None:
            return chi
    return None


# -- verifiers -----------------------------------------------------------------

def verify_projective(G):
    """Incidence-axiom report over the consistency cover: the degenerate
    triple axiom, the exchange axiom, nondegeneracy of quadrangles, and the
    quadrangle axiom with the narrow restriction on non-starred planes."""
    cliques = G.consistency_cover()
    report = {}

    vy1_bad = []
    for U in cliques:
        for a in U:
            for b in U:
                if not G.colinear(a, b, b):
                    vy1_bad.append((a, b))
    report["vy1"] = {"pass": not vy1_bad, "failures": vy1_bad,
                     "cover_size": len(cliques)}

    vy2_bad = []
    checked = set()
    for U in cliques:
        for s3, s4 in combinations(U, 2):
            seed = [s for s in U if G.colinear(s, s3, s4)]
            for s1 in seed:
                for s2 in seed:
                    key = (s1, s2, s3, s4)
                    if key in checked:
                        continue
                    checked.add(key)
                    if not G.colinear(s1, s2, s3):
                        vy2_bad.append(key)
    report["vy2"] = {"pass": not vy2_bad, "failures": vy2_bad,
                     "tuples": len(checked)}

    nondegen_bad = []
    quad_configs = {}
    for U in cliques:
        for lam, p1, p2 in _quadrangles(G, U):
            quad_configs.setdefault((lam, frozenset((p1, p2))), (lam, p1, p2))
    for lam, (a, b), (c, d) in quad_configs.values():
        quad = (a, b, c, d)
        if lam in quad or not _quad_is_generic(G, quad):
            continue
        for s in quad:
            if G.completion.real_id(s) is None:
                nondegen_bad.append((lam,) + quad)
                break
    report["nondegeneracy"] = {"pass": not nondegen_bad,
                               "failures": nondegen_bad,
                               "configs": len(quad_configs)}

    vy3 = _verify_quadrangle_axiom(G, quad_configs.values())
    report.update(vy3)
    report["pass"] = all(v["pass"] for v in report.values()
                         if isinstance(v, dict))
    return report


def _verify_quadrangle_axiom(G, configs):
    narrow = frozenset(G.pure_points) | G.hidden_narrow
    narrow_mask = sum(1 << p for p in narrow)
    general_bad, restricted_bad = [], []
    n_general = n_restricted = n_starred = 0
    general_hits = restricted_hits = 0
    seen_pairings = set()
    for lam, (a, b), (c, d) in configs:
        quad = (a, b, c, d)
        if lam in quad or not _no_inner_colinearity(G, quad):
            continue
        pairing = frozenset((frozenset((a, b)), frozenset((c, d))))
        if pairing not in seen_pairings:
            # witness existence does not involve lam; check once per pairing
            seen_pairings.add(pairing)
            n_general += 1
            for diag in ((a, b, c, d), (a, b, d, c)):
                hits = _diagonal_witnesses(G, diag)
                if not hits:
                    general_bad.append((lam,) + quad)
                    break
                paper = _paper_diagonal_witness(G, diag)
                if paper is not None and paper in hits:
                    general_hits += 1
        five = set(quad) | {lam}
        if not five <= narrow or not G.orthogonally_complete(five):
            continue
        if _config_on_starred_plane(G, lam, quad):
            n_starred += 1
            continue
        n_restricted += 1
        for diag in ((a, b, c, d), (a, b, d, c)):
            hits = [w for w in _diagonal_witnesses(G, diag, pool=narrow_mask)
                    if G.orthogonally_complete(set(diag) | {w})]
            if not hits:
                restricted_bad.append((lam,) + quad)
                break
            direct = _direct_diagonal_witness(G, diag)
            if direct is not None and direct in hits:
                restricted_hits += 1
    return {
        "vy3": {"pass": not general_bad, "failures": general_bad,
                "configs": n_general,
                "paper_witness_hits": general_hits},
        "vy3_restricted": {"pass": not restricted_bad,
                           "failures": restricted_bad,
                           "configs": n_restricted,
                           "starred_flagged": n_starred,
                           "paper_witness_hits": restricted_hits},
    }


def _config_on_starred_plane(G, lam, quad):
    """The plane spanned by the quadrangle is starred exactly when some pure
    centre has both of its one-factor starred partners among the corners and
    the remaining corners stay on the centre's two coordinate lines.  When
    the quadrangle vertex is pure the centre is the vertex itself; one-step
    plane generation is unstable on hidden points, so the structural test
    replaces a point-set comparison."""
    q = set(quad)
    for c in G.pure_points:
        partners = set(G.starred_partners(c).values())
        if len(partners) < 2 or not partners <= q:
            continue
        rest = q - partners
        if all(_shares_coordinate(G, c, p) for p in rest):
            return True
    return False


def _shares_coordinate(G, x, y):
    cx = G.coords[G.completion.real_id(x)]
    cy = G.coords[G.completion.real_id(y)]
    return any(a == b for a, b in zip(cx, cy))


def _direct_diagonal_witness(G, quad):
    """The join of the two diagonal meets, when both meets are real."""
    comp = G.completion
    s1, s2, s3, s4 = quad
    reals = [comp.real_id(s) for s in quad]
    if any(r is None for r in reals):
        return None
    m13 = comp.base.space.meet(reals[0], reals[2])
    m24 = comp.base.space.meet(reals[1], reals[3])
    return comp.sharpening([m13, m24])


def verify_ortho(G, wide=None):
    """Orthogonality-axiom report on the narrow point family; when the wide
    geometry is supplied, also checks that its extra hidden points never sit
    inside an orthogonally complete maximal chart of mixed pure traces."""
    if G.variant != "narrow":
        raise InputError("orthogonality verification needs the narrow variant")
    report = {}
    pts = G.points

    report["o1"] = {"pass": not any(G.perp[p, p] for p in pts)}
    report["o2"] = {"pass": all(bool(G.perp[p, q]) == bool(G.perp[q, p])
                                for p in pts for q in pts)}

    o3_bad = []
    for U in G.consistency_cover():
        for a, b in combinations(U, 2):
            eps = [e for e in U if G.perp[e, a] and G.perp[e, b]]
            if not eps:
                continue
            line = [d for d in U if G.colinear(d, a, b)]
            for e in eps:
                for d in line:
                    if not G.perp[e, d]:
                        o3_bad.append((a, b, e, d))
    report["o3"] = {"pass": not o3_bad, "failures": o3_bad}

    o4_bad, irr_bad = [], []
    o4_witness_hits = 0
    for a, b in permutations(pts, 2):
        if a == b or not G.consistent(a, b):
            continue
        third = [e for e in _third_points(G, a, b)
                 if G.orthogonally_complete({a, b, e})]
        if not any(G.perp[e, a] for e in third):
            o4_bad.append((a, b))
        elif _o4_paper_witness(G, a, b) in third:
            o4_witness_hits += 1
        if not any(k not in (a, b) for k in third):
            irr_bad.append((a, b))
    report["o4"] = {"pass": not o4_bad, "failures": o4_bad,
                    "paper_witness_hits": o4_witness_hits}
    # the double-starred pure pairs are the diagonals of starred planes;
    # their only third points live outside the narrow family
    report["irreducibility"] = {
        "pass": all(G.antipodal(a, b) for a, b in irr_bad),
        "theorem_as_stated": not irr_bad,
        "failures": irr_bad,
        "failures_are_antipodal": all(G.antipodal(a, b) for a, b in irr_bad),
    }

    report["structure_type2"] = _check_type2_structure(G)
    report["structure_type1"] = _check_type1_structure(G)
    if wide is not None:
        report["wide_exclusion"] = _check_wide_exclusion(G, wide)
    report["pass"] = all(v["pass"] for v in report.values()
                         if isinstance(v, dict))
    return report


def _o4_paper_witness(G, a, b):
    """The orthogonal third point: star of a (or of a's distinguished pure)
    joined with the meet toward b."""
    comp = G.completion
    base = comp.base
    if comp.real_id(a) is not None:
        m = comp.meet(a, b)
        m_real = comp.real_id(m)
        if m_real is None or m_real == base.space.bottom:
            return None
        return comp.sharpening([base.star_of(comp.real_id(a)), m_real])
    profile = G.hidden_profile(a)
    if profile is None:
        return None
    gamma, oriented = profile
    m = comp.meet(a, b)
    m_real = comp.real_id(m)
    if m_real is None:
        return None
    if m_real == gamma:
        return comp.embed(oriented[gamma][0])
    return comp.sharpening([m_real, base.star_of(gamma)])


def _check_type2_structure(G):
    """Every narrow hidden point carries the canonical maximal orthogonally
    complete chart: the point plus the oriented pure pair over each of its
    components, with the stated orthogonality pattern."""
    bad = []
    for chi in sorted(G.hidden_narrow):
        profile = G.hidden_profile(chi)
        if profile is None:
            bad.append((chi, "no canonical decomposition"))
            continue
        gamma, oriented = profile
        comp = G.completion
        U = {chi}
        for phi, psi in oriented.values():
            U |= {comp.embed(phi), comp.embed(psi)}
        chart = sum(1 << x for x in U)
        # the points consistent with every member of the chart
        joint = G._point_mask
        for x in U:
            joint &= G._cons[x]
        if joint & chart != chart:
            bad.append((chi, "chart not consistent"))
            continue
        phi_g, psi_g = (comp.embed(p) for p in oriented[gamma])
        pattern_ok = G.perp[phi_g, chi] and not G.perp[psi_g, chi] \
            and not G.perp[phi_g, psi_g]
        for e, (p, q) in oriented.items():
            if e == gamma:
                continue
            p, q = comp.embed(p), comp.embed(q)
            pattern_ok &= bool(G.perp[p, q])
            pattern_ok &= not G.perp[p, chi] and not G.perp[q, chi]
            pattern_ok &= bool(G.perp[phi_g, p]) and bool(G.perp[phi_g, q])
        if not pattern_ok:
            bad.append((chi, "orthogonality pattern"))
            continue
        if not G.orthogonally_complete(U):
            bad.append((chi, "chart not orthogonally complete"))
            continue
        extendable = [p for p in bits(joint & ~chart)
                      if G.orthogonally_complete(U | {p})]
        if extendable:
            bad.append((chi, "chart not maximal", extendable))
    return {"pass": not bad, "failures": bad,
            "hidden_points": len(G.hidden_narrow)}


def _check_type1_structure(G):
    """For every narrow hidden point and each of its components, the
    four-point single-trace chart exists with the stated partner point and
    orthogonality pattern."""
    comp = G.completion
    base = comp.base
    bad = []
    for chi in sorted(G.hidden_narrow):
        profile = G.hidden_profile(chi)
        if profile is None:
            bad.append((chi, "no canonical decomposition"))
            continue
        gamma, oriented = profile
        for delta, (phi_d, psi_d) in oriented.items():
            if delta == gamma:
                partner = comp.sharpening(
                    [base.star_of(oriented[gamma][1]), gamma])
                expect = (False, True, False, False, True, False)
            else:
                partner = comp.sharpening([delta, base.star_of(gamma)])
                expect = (True, False, False, False, False, True)
            if partner is None or not comp.is_hidden(partner) \
                    or partner not in G.hidden_narrow:
                bad.append((chi, delta, "partner missing"))
                continue
            p, q = comp.embed(phi_d), comp.embed(psi_d)
            got = (bool(G.perp[p, q]), bool(G.perp[p, chi]),
                   bool(G.perp[q, chi]), bool(G.perp[p, partner]),
                   bool(G.perp[q, partner]), bool(G.perp[chi, partner]))
            if got != expect:
                bad.append((chi, delta, "pattern", got, expect))
                continue
            U = {chi, p, q, partner}
            ids = [x for x in U if x in G._cons]
            chart = sum(1 << x for x in ids)
            if not all(G._cons[x] & chart == chart for x in ids):
                bad.append((chi, delta, "chart not consistent"))
                continue
            if not G.orthogonally_complete(U):
                bad.append((chi, delta, "not orthogonally complete"))
    return {"pass": not bad, "failures": bad}


def _check_wide_exclusion(G, wide):
    """Maximal charts of the wide geometry holding a hidden point outside
    the narrow family with two distinct pure traces must fail orthogonal
    completeness."""
    extra = wide.hidden_wide - wide.hidden_narrow
    bad = []
    checked = 0
    for U in wide.consistency_cover():
        hiddens = [chi for chi in U if chi in extra]
        if not hiddens:
            continue
        for chi in hiddens:
            comps = set(wide.completion.components(chi))
            traces = set()
            for s in U:
                if wide.completion.real_id(s) is None or s == chi:
                    continue
                s_real = wide.completion.real_id(s)
                hits = [e for e in comps
                        if wide.completion.base.space.leq[e, s_real]]
                traces.update(hits)
            if len(traces) >= 2:
                checked += 1
                if wide.orthogonally_complete(set(U)):
                    bad.append((chi, U))
    return {"pass": not bad, "failures": bad, "charts_checked": checked}


# -- order-theoretic invariants -------------------------------------------------

def verify_invariants(G, samples=200, seed=0):
    """Cross-checks of the relations against their coordinate descriptions:
    consistency of pures equals the two-coordinate relation, distinct
    consistent hidden points share exactly one component, covered
    quadruples agree outside two coordinates, and sampled hidden joins
    match the coordinate-pattern triple of components."""
    comp = G.completion
    base = comp.base
    report = {}

    wr_ok = all(G.consistent(x, y) == G.wr(x, y)
                for x, y in combinations(G.pure_points, 2))
    report["wr_matches_consistency"] = {"pass": wr_ok}

    rek1_bad = []
    hidden = sorted(set(G.points) - set(G.pure_points))
    for x, y in combinations(hidden, 2):
        if G.consistent(x, y):
            shared = set(comp.components(x)) & set(comp.components(y))
            if len(shared) != 1:
                rek1_bad.append((x, y, len(shared)))
    report["rek1"] = {"pass": not rek1_bad, "failures": rek1_bad}

    zl_bad = []
    pures = base.space.pures()
    covered = {}
    for lam in pures:
        covered[lam] = [(a, b) for a, b in combinations(pures, 2)
                        if lam not in (a, b)
                        and G._cov_real[base.space.meet(a, b)] >> lam & 1]
    for lam in pures:
        for (a, b), (c, d) in combinations(covered[lam], 2):
            if len({a, b, c, d}) != 4:
                continue
            if base.space.meet(a, b) == base.space.meet(c, d):
                continue
            five = [lam, a, b, c, d]
            agree = [i for i in range(G.n_factors)
                     if len({G.coords[s][i] for s in five}) == 1]
            if len(agree) < G.n_factors - 2:
                zl_bad.append(tuple(five))
    report["covered_quadruple_coordinates"] = {"pass": not zl_bad,
                                               "failures": zl_bad}

    report["hidden_component_pattern"] = _check_component_pattern(
        G, samples, seed)
    report["pass"] = all(v["pass"] for v in report.values()
                         if isinstance(v, dict))
    return report


def _check_component_pattern(G, samples, seed):
    comp = G.completion
    base = comp.base
    pures = base.space.pures()
    triples = [(m, n, p) for m in pures for n in pures for p in pures
               if len({m, n, p}) == 3]
    rng = random.Random(seed)
    if len(triples) > samples:
        triples = rng.sample(triples, samples)
    bad = []
    checked = 0
    for mu, nu, phi in triples:
        cn, cp, cm = G.coords[nu], G.coords[phi], G.coords[mu]
        diff = [i for i in range(G.n_factors) if cn[i] != cp[i]]
        if len(diff) > 2:
            continue
        if base.space.leq[base.star_of(mu), nu] \
                or base.space.leq[base.star_of(mu), phi]:
            continue
        gamma = base.space.meet(nu, phi)
        row = G._cov_real[gamma]
        if not row >> nu & row >> phi & 1:
            continue
        lam = comp.sharpening([base.star_of(mu), gamma])
        if lam is None or not comp.is_hidden(lam):
            continue
        jk = sorted(diff)
        while len(jk) < 2:
            jk.append(next(i for i in range(G.n_factors) if i not in jk))
        j, k = jk[0], jk[1]
        pattern = _component_pattern(G, mu, nu, phi, j, k)
        checked += 1
        if pattern != set(comp.components(lam)):
            bad.append((mu, nu, phi))
    return {"pass": not bad, "failures": bad, "checked": checked}


def _component_pattern(G, mu, nu, phi, j, k):
    r"""The three components of mu |_| (nu /\ phi) predicted from the factor
    coordinates on the two active positions."""
    base = G.completion.base
    a, b_ = G.coords[mu][j], G.coords[mu][k]
    a1, b1 = G.coords[nu][j], G.coords[nu][k]
    a2, b2 = G.coords[phi][j], G.coords[phi][k]
    sj, sk = G.factors[j], G.factors[k]

    def delta(x, y):
        t = list(G.coords[nu])
        t[j], t[k] = x, y
        return _pure_by_coords(G, tuple(t))

    def m(x, y):
        return base.space.meet(x, y)

    return {
        m(delta(a2, b2), delta(a1, b1)),
        m(delta(a2, sk.star_of(b_)), delta(sj.star_of(a), b1)),
        m(delta(a1, sk.star_of(b_)), delta(sj.star_of(a), b2)),
    }


def _pure_by_coords(G, t):
    for p, c in G.coords.items():
        if c == t:
            return p
    raise InputError("no pure with coordinates %r" % (t,))


# -- covering preservation -------------------------------------------------------

def covering_preservation_report(rs):
    """Both covering laws on a real space: pairwise meets of distinct pures
    are covered by each, and when a pure covers two distinct pair meets the
    total meet is covered by both pair meets."""
    space = rs.space
    cov = space.covers
    pures = space.pures()
    first_bad = []
    for a, b in combinations(pures, 2):
        m = space.meet(a, b)
        if not cov[m] >> a & cov[m] >> b & 1:
            first_bad.append((a, b))
    second_bad = []
    n_second = 0
    covered = {lam: [(a, b) for a, b in combinations(pures, 2)
                     if lam not in (a, b) and cov[space.meet(a, b)] >> lam & 1]
               for lam in pures}
    for lam in pures:
        for (a, b), (c, d) in combinations(covered[lam], 2):
            if len({a, b, c, d, lam}) != 5:
                continue
            mab, mcd = space.meet(a, b), space.meet(c, d)
            if mab == mcd:
                continue
            n_second += 1
            total = space.meet_all([a, b, c, d])
            if not cov[total] >> mab & cov[total] >> mcd & 1:
                second_bad.append((lam, a, b, c, d))
    return {
        "first": {"pass": not first_bad, "failures": first_bad,
                  "pairs": len(pures) * (len(pures) - 1) // 2},
        "second": {"pass": not second_bad, "failures": second_bad,
                   "configs": n_second},
        "pass": not first_bad and not second_bad,
    }


# -- export ------------------------------------------------------------------------

def export_incidence(G):
    names = G.completion.space.names
    lines = sorted({tuple(sorted(names[p] for p in G.line(a, b)))
                    for a, b in combinations(G.points, 2)
                    if G.consistent(a, b)})
    edges = sorted((names[a], names[b])
                   for a, b in combinations(G.points, 2)
                   if G.consistent(a, b))
    return {
        "variant": G.variant,
        "points": [names[p] for p in G.points],
        "hidden": [names[p] for p in sorted(set(G.points)
                                            - set(G.pure_points))],
        "lines": [list(l) for l in lines],
        "consistency": [list(e) for e in edges],
    }


def consistency_dot(G, graph_name="consistency"):
    names = G.completion.space.names
    out = ["graph %s {" % graph_name]
    for p in G.points:
        out.append('  "%s";' % names[p])
    for a, b in combinations(G.points, 2):
        if G.consistent(a, b):
            out.append('  "%s" -- "%s";' % (names[a], names[b]))
    out.append("}")
    return "\n".join(out)
