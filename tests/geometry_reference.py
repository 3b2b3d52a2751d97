"""Per-call geometry verifiers, the reference for the mask tables of
qlattice.geometry.

Consistency is decided pair by pair from its definition (consistent), the
reference for GeometrySet's consistency masks; the verifiers below read
the masks through G.consistent.  Every incidence query here reads the
completion's meet and cover rows, and every orthogonality query one entry
of a dense perp matrix built here from the completion's leq (perp);
nothing reads thru, pencil or the perp masks.
The verifiers scan the consistency cover chart by chart and keep each
quadrangle configuration and each exchange tuple in a set, as the geometry
module once did, so their reports (counts and failure lists, in scan
order) are what the mask verifiers must reproduce.  The witness
constructions that read neither table come from the module under test.
"""

import functools
from itertools import combinations, permutations

import numpy as np

from qlattice.geometry import (_direct_diagonal_witness, _o4_paper_witness,
                               _paper_diagonal_witness)


@functools.lru_cache(maxsize=None)
def ortho_outer_product(emb):
    """x orth y iff some non-bottom real w lies below x with its star below
    y: the OR of one outer product of leq rows per such w."""
    amb = emb.ambient
    orth = np.zeros((amb.n, amb.n), dtype=bool)
    for w in emb.real:
        if w != amb.bottom:
            orth |= amb.leq[w][:, None] & amb.leq[emb.star_of(w)][None, :]
    return orth


def perp(G):
    """The dense orthogonality matrix of G's completion, or the one a test
    copy carries as dense_perp."""
    dense = getattr(G, "dense_perp", None)
    return ortho_outer_product(G.completion.embedding) if dense is None \
        else dense


def consistent(G, x, y):
    """Consistency of two distinct points by its definition, pair by pair:
    two pures whose coordinates differ in at most two factors; a hidden chi
    and a pure sigma when sigma covers some component of chi; two hidden
    points whose completion meet is a component they share."""
    comp = G.completion
    hx, hy = comp.is_hidden(x), comp.is_hidden(y)
    if not hx and not hy:
        cx, cy = (G.coords[comp.real_id(s)] for s in (x, y))
        return sum(a != b for a, b in zip(cx, cy)) <= 2
    if hx and hy:
        shared = set(comp.components(x)) & set(comp.components(y))
        m = comp.meet(x, y)
        return any(comp.embed(e) == m for e in shared)
    chi, sigma = (x, y) if hx else (y, x)
    covers = comp.base.space.covers
    return any(covers[e] >> comp.real_id(sigma) & 1
               for e in comp.components(chi))


def colinear(G, a, b, c):
    """b = c, or a covers the completion meet of b and c."""
    if b == c:
        return True
    m = G.completion.meet(b, c)
    return bool(G.completion.space.covers[m] >> a & 1)


def line(G, a, b):
    m = G.completion.meet(a, b)
    return frozenset(p for p in G.points
                     if G.completion.space.covers[m] >> p & 1) | {a, b}


def colinear_pairs(G, subset, lam):
    """Unordered pairs (a, b) of the subset, both distinct from lam, whose
    completion meet is covered by lam."""
    return [(a, b) for a, b in combinations(sorted(subset), 2)
            if lam not in (a, b) and colinear(G, lam, a, b)]


def quadrangles(G, subset):
    """Configurations (lam, (a, b), (c, d)) inside the subset: lam covers
    both meets and the four flank points are distinct."""
    for lam in subset:
        pairs = colinear_pairs(G, subset, lam)
        for (a, b), (c, d) in combinations(pairs, 2):
            if len({a, b, c, d}) == 4:
                yield lam, (a, b), (c, d)


def quad_is_generic(G, quad):
    meets = [G.completion.meet(x, y) for x, y in combinations(quad, 2)]
    return len(set(meets)) == len(meets)


def no_inner_colinearity(G, quad):
    for a, b, c in permutations(quad, 3):
        if b < c and a not in (b, c) and colinear(G, a, b, c):
            return False
    return True


def orthogonally_complete(G, subset, quads=True):
    """Every colinear triple holds an orthogonal pair and, unless quads is
    false, every quadrangle without inner colinearity has a corner
    orthogonal to two others."""
    P = perp(G)
    subset = sorted(subset)
    for a, b, c in permutations(subset, 3):
        if b < c and colinear(G, a, b, c):
            if not (P[a, b] or P[a, c] or P[b, c]):
                return False
    if not quads:
        return True
    for lam, (a, b), (c, d) in quadrangles(G, subset):
        quad = (a, b, c, d)
        if not no_inner_colinearity(G, quad):
            continue
        if not any(sum(bool(P[x, y]) for y in quad if y != x) >= 2
                   for x in quad):
            return False
    return True


def third_points(G, a, b):
    return [e for e in G.points if colinear(G, e, a, b)
            and G.consistent(e, a) and G.consistent(e, b)]


def diagonal_witnesses(G, quad, pool=None):
    s1, s2, s3, s4 = quad
    pool = G.points if pool is None else pool
    return [w for w in sorted(pool)
            if colinear(G, w, s1, s3) and colinear(G, w, s2, s4)
            and all(G.consistent(w, s) for s in quad)]


def quadrangle_configs(G):
    """Every configuration met chart by chart, keyed by its vertex and
    pairing, in the order the scan first meets it."""
    configs = {}
    for U in G.consistency_cover():
        for lam, p1, p2 in quadrangles(G, U):
            configs.setdefault((lam, frozenset((p1, p2))), (lam, p1, p2))
    return list(configs.values())


def exchange_tuples(G):
    """The distinct (s1, s2, s3, s4) of the exchange axiom, chart by chart,
    and the ones where s1 is not colinear with s2, s3."""
    checked, bad = set(), []
    for U in G.consistency_cover():
        for s3, s4 in combinations(U, 2):
            seed = [s for s in U if colinear(G, s, s3, s4)]
            for s1 in seed:
                for s2 in seed:
                    key = (s1, s2, s3, s4)
                    if key in checked:
                        continue
                    checked.add(key)
                    if not colinear(G, s1, s2, s3):
                        bad.append(key)
    return checked, bad


def verify_projective(G):
    cliques = G.consistency_cover()
    report = {}
    vy1_bad = [(a, b) for U in cliques for a in U for b in U
               if not colinear(G, a, b, b)]
    # colinear(a, b, b) holds by definition, so vy1 cannot fail
    report["vy1"] = {"pass": not vy1_bad, "failures": vy1_bad,
                     "cover_size": len(cliques), "vacuous": True}
    checked, vy2_bad = exchange_tuples(G)
    report["vy2"] = {"pass": not vy2_bad, "failures": vy2_bad,
                     "tuples": len(checked)}
    configs = quadrangle_configs(G)
    nondegen_bad = []
    for lam, (a, b), (c, d) in configs:
        quad = (a, b, c, d)
        if quad_is_generic(G, quad) \
                and any(G.completion.real_id(s) is None for s in quad):
            nondegen_bad.append((lam,) + quad)
    report["nondegeneracy"] = {"pass": not nondegen_bad,
                               "failures": nondegen_bad,
                               "configs": len(configs)}
    report.update(_quadrangle_axiom(G, configs))
    report["pass"] = all(v["pass"] for v in report.values()
                         if isinstance(v, dict))
    return report


def _quadrangle_axiom(G, configs):
    narrow = frozenset(G.pure_points) | G.hidden_narrow
    pures = sum(1 << r for r in G.completion.base.space.pures())
    general_bad, restricted_bad = [], []
    n_general = n_restricted = n_starred = 0
    general_hits = restricted_hits = 0
    seen_pairings = set()
    for lam, (a, b), (c, d) in configs:
        quad = (a, b, c, d)
        if not no_inner_colinearity(G, quad):
            continue
        pairing = frozenset((frozenset((a, b)), frozenset((c, d))))
        if pairing not in seen_pairings:
            seen_pairings.add(pairing)
            n_general += 1
            for diag in ((a, b, c, d), (a, b, d, c)):
                hits = diagonal_witnesses(G, diag)
                if not hits:
                    general_bad.append((lam,) + quad)
                    break
                paper = _paper_diagonal_witness(G, diag, pures)
                if paper is not None and paper in hits:
                    general_hits += 1
        five = set(quad) | {lam}
        if not five <= narrow or not orthogonally_complete(G, five):
            continue
        if _on_starred_plane(G, quad):
            n_starred += 1
            continue
        n_restricted += 1
        for diag in ((a, b, c, d), (a, b, d, c)):
            hits = [w for w in diagonal_witnesses(G, diag, pool=narrow)
                    if orthogonally_complete(G, set(diag) | {w})]
            if not hits:
                restricted_bad.append((lam,) + quad)
                break
            direct = _direct_diagonal_witness(G, diag)
            if direct is not None and direct in hits:
                restricted_hits += 1
    return {
        "vy3": {"pass": not general_bad, "failures": general_bad,
                "configs": n_general, "paper_witness_hits": general_hits},
        "vy3_restricted": {"pass": not restricted_bad,
                           "failures": restricted_bad,
                           "configs": n_restricted,
                           "starred_flagged": n_starred,
                           "paper_witness_hits": restricted_hits},
    }


def starred_partners(G, x):
    """Pure points obtained from x by starring exactly one factor
    coordinate, keyed by the factor position."""
    rx = G.completion.real_id(x)
    if rx is None:
        return {}
    t = G.coords[rx]
    out = {}
    for i, factor in enumerate(G.factors):
        s = list(t)
        s[i] = factor.star_of(t[i])
        for p in G.pure_points:
            if G.coords[G.completion.real_id(p)] == tuple(s):
                out[i] = p
    return out


def _on_starred_plane(G, quad):
    q = set(quad)
    for c in G.pure_points:
        partners = set(starred_partners(G, c).values())
        if len(partners) < 2 or not partners <= q:
            continue
        if all(_shares_coordinate(G, c, p) for p in q - partners):
            return True
    return False


def _shares_coordinate(G, x, y):
    """x and y are pure points on a common coordinate line; hidden points
    lie on none."""
    rx, ry = G.completion.real_id(x), G.completion.real_id(y)
    if rx is None or ry is None:
        return False
    return any(a == b for a, b in zip(G.coords[rx], G.coords[ry]))


def verify_ortho(G, wide=None):
    P = perp(G)
    report = {}
    pts = G.points
    report["o1"] = {"pass": not any(P[p, p] for p in pts)}
    report["o2"] = {"pass": all(bool(P[p, q]) == bool(P[q, p])
                                for p in pts for q in pts)}
    o3_bad = []
    for U in G.consistency_cover():
        for a, b in combinations(U, 2):
            eps = [e for e in U if P[e, a] and P[e, b]]
            line_ab = [d for d in U if colinear(G, d, a, b)]
            o3_bad.extend((a, b, e, d) for e in eps for d in line_ab
                          if not P[e, d])
    report["o3"] = {"pass": not o3_bad, "failures": o3_bad}
    o4_bad, irr_bad = [], []
    o4_witness_hits = 0
    for a, b in permutations(pts, 2):
        if not G.consistent(a, b):
            continue
        third = [e for e in third_points(G, a, b)
                 if orthogonally_complete(G, {a, b, e})]
        if not any(P[e, a] for e in third):
            o4_bad.append((a, b))
        else:
            profile = (G.hidden_profile(a) if G.completion.is_hidden(a)
                       else None)
            if _o4_paper_witness(G, a, b, profile) in third:
                o4_witness_hits += 1
        if not any(k not in (a, b) for k in third):
            irr_bad.append((a, b))
    report["o4"] = {"pass": not o4_bad, "failures": o4_bad,
                    "paper_witness_hits": o4_witness_hits}
    report["irreducibility"] = {
        "pass": all(G.antipodal(a, b) for a, b in irr_bad),
        "theorem_as_stated": not irr_bad,
        "failures": irr_bad,
        "failures_are_antipodal": all(G.antipodal(a, b) for a, b in irr_bad),
    }
    report["structure_type2"] = _type2_structure(G)
    report["structure_type1"] = _type1_structure(G)
    if wide is not None:
        report["wide_exclusion"] = _wide_exclusion(wide)
    report["pass"] = all(v["pass"] for v in report.values()
                         if isinstance(v, dict))
    return report


def _type2_structure(G):
    P = perp(G)
    bad = []
    comp = G.completion
    for chi in sorted(G.hidden_narrow):
        profile = G.hidden_profile(chi)
        if profile is None:
            bad.append((chi, "no canonical decomposition"))
            continue
        gamma, oriented = profile
        U = {chi}
        for phi, psi in oriented.values():
            U |= {comp.embed(phi), comp.embed(psi)}
        joint = [p for p in G.points
                 if all(G.consistent(p, x) for x in U)]
        if not U <= set(joint):
            bad.append((chi, "chart not consistent"))
            continue
        phi_g, psi_g = (comp.embed(p) for p in oriented[gamma])
        pattern_ok = P[phi_g, chi] and not P[psi_g, chi] \
            and not P[phi_g, psi_g]
        for e, (p, q) in oriented.items():
            if e == gamma:
                continue
            p, q = comp.embed(p), comp.embed(q)
            pattern_ok &= bool(P[p, q])
            pattern_ok &= not P[p, chi] and not P[q, chi]
            pattern_ok &= bool(P[phi_g, p]) and bool(P[phi_g, q])
        if not pattern_ok:
            bad.append((chi, "orthogonality pattern"))
            continue
        if not orthogonally_complete(G, U):
            bad.append((chi, "chart not orthogonally complete"))
            continue
        extendable = [p for p in joint if p not in U
                      and orthogonally_complete(G, U | {p})]
        if extendable:
            bad.append((chi, "chart not maximal", extendable))
    return {"pass": not bad, "failures": bad,
            "hidden_points": len(G.hidden_narrow)}


def _type1_structure(G):
    P = perp(G)
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
            got = (bool(P[p, q]), bool(P[p, chi]),
                   bool(P[q, chi]), bool(P[p, partner]),
                   bool(P[q, partner]), bool(P[chi, partner]))
            if got != expect:
                bad.append((chi, delta, "pattern", got, expect))
                continue
            U = {chi, p, q, partner}
            if not all(G.consistent(x, y) for x in U for y in U):
                bad.append((chi, delta, "chart not consistent"))
                continue
            if not orthogonally_complete(G, U):
                bad.append((chi, delta, "not orthogonally complete"))
    return {"pass": not bad, "failures": bad}


def _wide_exclusion(wide):
    comp = wide.completion
    extra = wide.hidden_wide - wide.hidden_narrow
    bad = []
    checked = 0
    for U in wide.consistency_cover():
        for chi in [x for x in U if x in extra]:
            comps = set(comp.components(chi))
            traces = set()
            for s in U:
                if comp.real_id(s) is None or s == chi:
                    continue
                traces.update(e for e in comps
                              if comp.base.space.leq[e, comp.real_id(s)])
            if len(traces) >= 2:
                checked += 1
                if orthogonally_complete(wide, set(U)):
                    bad.append((chi, U))
    return {"pass": not bad, "failures": bad, "charts_checked": checked}
