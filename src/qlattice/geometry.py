r"""Projective and orthogonal geometry over the completed tensor of two
spin factors.

Points are the pure product states together with two families of hidden
states: joins mu* |_| (nu /\ phi) over pure triples (the wide family), and
the subfamily where mu is one of nu, phi (the narrow family).  Consistency
is a binary compatibility relation; its maximal cliques play the role of
charts on which a ternary colinearity relation is defined.  The verifiers
below check the Veblen-Young incidence axioms on those charts, the
orthogonality axioms on the narrow family, and the structural lemmas tying
orthogonal completeness to the narrow family.

Every incidence and orthogonality query is an AND of int masks over the
points (bit p for point p), read from tables that GeometrySet builds once:
thru[b][c], the points colinear with b and c; pencil[lam][a], the points
b with lam colinear with a and b; and the row and column masks of perp
(see GeometrySet).  The bit-vector encoding is the one the completion
uses for its order (Aït-Kaci, Boyer, Lincoln and Nasr, TOPLAS 11(1),
1989).

Work that depends on fewer points than a configuration runs once per
object it depends on.  A set of points is pairwise consistent exactly
when it lies in some chart, since every clique extends to a maximal one.
So the quadrangle configurations (lam, (a, b), (c, d)) met chart by chart
are the vertices lam of the pairings {(a, b), (c, d)} whose five points
are pairwise consistent, and the vertices of one pairing are one mask
(_quadrangles).  "configs" is the sum of the popcounts of those masks.
The walk hands its caller the four flanks, so genericity, the
hidden-corner test and inner colinearity are a few ANDs once per
four-point set; witness existence reads only the two pairs and runs once
per pairing.  The exchange axiom's "tuples" are the (s1, s2, s3, s4) with
s1 and s2 colinear with s3 and s4 and all four pairwise consistent,
counted with one popcount per (s3, s4, s1).  Where the verifiers no longer
scan chart by chart, their failure lists are put in the order such a scan
meets them (_scan_order), so a report is the same as the per-chart scan's,
failures included.

Orthogonal completeness reads the chart's pairs and four-point subsets
directly (_orthogonally_complete), memoised per chart for one verifier
call, which also builds its per-pure tables (base pure mask, starred
centres, hidden profiles) once.
"""

import copy
import functools
from itertools import combinations
import random

from .core_order import InputError, bits, transpose
from .realspaces import ortho_matrix


class GeometrySet(object):
    """Point set and relations of one variant, with cached order data.

    The completion sits over the two-factor tensor ts: coords[r] is the
    factor pure pair (ts.pure_pair_of) of the pure real r, and factors is
    (ts.left, ts.right).  All points are ids in the completion's ambient
    space.  Both hidden families are enumerated regardless of the variant
    so that the wide geometry can consult the narrow subfamily.  Relations
    are int masks over those ids, bit p for point p, built once here:

    - _parts[p]: the components of p, as a mask over the base reals (bit
      r for real r; a pure point's only component is its real).
    - _cons[p]: the points consistent with p, p itself included, read off
      _parts (see _consistency_masks).
    - thru[b][c]: the points covering the completion meet of b and c, so
      that colinear(a, b, c) is bit a of it.  thru[b][b] is every point,
      because colinear(a, b, b) holds for every a (b = c); the exchange
      and degenerate-triple axioms read it that way.  Rows are shared per
      meet.
    - pencil[lam][a]: the points b != a with lam in thru[a][b], a sparse
      dict (missing means 0).  It answers "is s1 colinear with s2, s3" for
      every s2 at once: s2 = s3 or s2 in pencil[s1][s3].
    - perp_rows[x] and perp_cols[y]: bit y of the one and bit x of the
      other is set when x is orthogonal to y, restricted to the points.
      The rows are those of realspaces.ortho_matrix and the columns their
      transpose.  Code that lets x vary reads the column of y; o2 tests
      symmetry by comparing each row with its column and assumes nothing.
    """

    def __init__(self, completion, ts, variant="narrow"):
        if variant not in ("wide", "narrow"):
            raise InputError("unknown geometry variant %r" % (variant,))
        if ts.real_space is not completion.base \
                and ts.real_space.space is not completion.base.space:
            raise InputError("completion does not sit over the tensor")
        self.completion = completion
        self.variant = variant
        base = completion.base.space
        # the factor pure pair of every pure, and the pure at each pair
        self.coords = {p: ts.pure_pair_of(p) for p in base.pures()}
        self._pure_of = {c: p for p, c in self.coords.items()}
        self.factors = (ts.left, ts.right)

        self.pure_points = tuple(sorted(completion.embed(p)
                                        for p in base.pures()))
        self.hidden_wide, self.hidden_narrow = self._enumerate_hidden()
        hidden = self.hidden_wide if variant == "wide" \
            else self.hidden_narrow
        self.points = tuple(sorted(set(self.pure_points) | hidden))
        self._point_mask = sum(1 << p for p in self.points)
        self._pure_mask = sum(1 << p for p in self.pure_points)
        self._parts = {p: sum(1 << e for e in completion.components(p))
                       for p in self.points}
        self._cons = self._consistency_masks()
        self.thru, self.pencil = self._incidence_tables()
        self.perp_rows, self.perp_cols = self._perp_masks(
            ortho_matrix(completion.embedding))
        self._cliques = None

    # -- construction --------------------------------------------------------

    def _enumerate_hidden(self):
        comp = self.completion
        base = comp.base
        pures = base.space.pures()
        wide, narrow = set(), set()
        for nu, phi in combinations(pures, 2):
            gamma = base.space.meet(nu, phi)
            row = base.space.covers[gamma]
            if not row >> nu & row >> phi & 1:
                continue
            for mu in pures:
                if base.space.up[base.star_of(mu)] >> gamma & 1:
                    continue
                chi = comp.sharpening([base.star_of(mu), gamma])
                if chi is None or not comp.is_hidden(chi):
                    continue
                wide.add(chi)
                if mu == nu or mu == phi:
                    narrow.add(chi)
        return frozenset(wide), frozenset(narrow)

    def _consistency_masks(self):
        """_cons (see the class docstring), read off the component masks:
        two pures by wr; a hidden chi and a pure sigma when some component
        of chi is covered by sigma; two hidden points when their completion
        meet is a real component of both."""
        comp = self.completion
        parts = self._parts
        base = comp.base.space
        # bit e of lower[r]: r covers the real e
        lower = transpose(base.covers, base.n)
        pures = self.pure_points
        hidden = [p for p in self.points if not self._pure_mask >> p & 1]
        out = {p: 1 << p for p in self.points}

        def link(x, y):
            out[x] |= 1 << y
            out[y] |= 1 << x

        for i, x in enumerate(pures):
            for y in pures[i + 1:]:
                if self.wr(x, y):
                    link(x, y)
        below = [(s, lower[comp.real_id(s)]) for s in pures]
        for chi in hidden:
            for sigma, row in below:
                if parts[chi] & row:
                    link(chi, sigma)
        for i, x in enumerate(hidden):
            part_x = parts[x]
            for y in hidden[i + 1:]:
                shared = part_x & parts[y]
                if shared:
                    m = comp.real_id(comp.meet(x, y))
                    if m is not None and shared >> m & 1:
                        link(x, y)
        return out

    def _incidence_tables(self):
        """thru and pencil (see the class docstring), the pairs grouped by
        meet: walking the m below b top down in down-set size, the points
        first met above m are those meeting b in m.  Each meet's line and
        its points are built once; a row starts as a copy of the bottom's
        line, the meet of most pairs."""
        space = self.completion.space
        size = [d.bit_count() for d in space.down]
        everything = self._point_mask
        known = {}  # meet -> the points above it, its line, the line's bits
        bottom_row = dict.fromkeys(self.points,
                                   space.covers[space.bottom] & everything)
        thru, pencil = {}, {p: {} for p in self.points}
        for b in self.points:
            row, seen = bottom_row.copy(), 1 << b
            for m in sorted(bits(space.down[b]), key=size.__getitem__,
                            reverse=True):
                if m not in known:
                    line = space.covers[m] & everything
                    known[m] = (space.up[m] & everything, line, bits(line))
                over, line, fan = known[m]
                ends = over & ~seen
                if not ends:
                    continue
                seen |= over
                if m != space.bottom:
                    row.update(dict.fromkeys(bits(ends), line))
                for lam in fan:
                    pencil[lam][b] = pencil[lam].get(b, 0) | ends
                if seen == everything:
                    break
            row[b] = everything
            thru[b] = row
        return thru, pencil

    def _perp_masks(self, rows):
        """perp_rows and perp_cols: the rows of ortho_matrix (bit y of
        rows[x] when x is orthogonal to y) restricted to the points, and
        their transpose."""
        keep = self._point_mask
        rows = [row & keep if keep >> x & 1 else 0
                for x, row in enumerate(rows)]
        cols = transpose(rows, len(rows))
        return ({p: rows[p] for p in self.points},
                {p: cols[p] for p in self.points})

    # -- basic queries --------------------------------------------------------

    def wr(self, x, y):
        """Pure points whose coordinates differ in at most two factors."""
        cx = self.coords[self.completion.real_id(x)]
        cy = self.coords[self.completion.real_id(y)]
        return sum(a != b for a, b in zip(cx, cy)) <= 2

    def consistent(self, x, y):
        return bool(self._cons[x] >> y & 1)

    def _check_points(self, *xs):
        missing = [x for x in xs if x not in self.thru]
        if missing:
            raise InputError("not points of the %s geometry: %s"
                             % (self.variant, missing))

    def colinear(self, a, b, c):
        """b = c, or a covers the completion meet of b and c."""
        self._check_points(a, b, c)
        return bool(self.thru[b][c] >> a & 1)

    def antipodal(self, x, y):
        """Pure points whose coordinates are star-related in every factor
        where they differ, with at least one differing factor."""
        rx, ry = self.completion.real_id(x), self.completion.real_id(y)
        if rx is None or ry is None:
            return False
        return all(a != b and f.star_of(a) == b for f, a, b
                   in zip(self.factors, self.coords[rx], self.coords[ry]))

    def consistency_cover(self):
        """Maximal pairwise-consistent point sets, deterministically ordered."""
        if self._cliques is None:
            adj = {p: m & ~(1 << p) for p, m in self._cons.items()}
            self._cliques = sorted(tuple(bits(c))
                                   for c in _bron_kerbosch(adj))
        return self._cliques

    def line(self, a, b):
        """a, b and the points colinear with them; every point when a = b."""
        self._check_points(a, b)
        return frozenset(bits(self.thru[a][b] | 1 << a | 1 << b))

    # -- hidden-point anatomy --------------------------------------------------

    def hidden_profile(self, chi):
        """The distinguished component gamma of a narrow hidden point and the
        oriented pure pair above every component; None when the point does
        not decompose that way."""
        comp = self.completion
        base = comp.base
        hat_up, up = comp.space.up, base.space.up
        pairs = {}
        for e in comp.components(chi):
            above = base.space.pures_above(e)
            if len(above) != 2:
                return None
            pairs[e] = above
        gammas = []
        for e, (p, q) in pairs.items():
            for phi in (p, q):
                if hat_up[comp.embed(base.star_of(phi))] >> chi & 1:
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
            if up[base.star_of(p)] >> q & 1:
                oriented[e] = (p, q)
            elif up[base.star_of(q)] >> p & 1:
                oriented[e] = (q, p)
            else:
                return None
        return gamma, oriented

    # -- orthogonal completeness ------------------------------------------------

    def orthogonally_complete(self, subset):
        """Every colinear triple of the subset holds an orthogonal pair, and
        every quadrangle of it without inner colinearity has a corner
        orthogonal to two others."""
        return _orthogonally_complete(self, sum(1 << x for x in set(subset)))

    def narrowed(self):
        """The narrow geometry cut from this one, each table restricted to
        the pure and narrow hidden points: nothing is enumerated again."""
        keep = self._pure_mask | sum(1 << p for p in self.hidden_narrow)
        G = copy.copy(self)
        G.variant, G._point_mask, G._cliques = "narrow", keep, None
        G.points = tuple(p for p in self.points if keep >> p & 1)
        G._parts = {p: self._parts[p] for p in G.points}
        G._cons, G.perp_rows, G.perp_cols = (
            {p: t[p] & keep for p in G.points}
            for t in (self._cons, self.perp_rows, self.perp_cols))
        G.thru = {b: {c: self.thru[b][c] & keep for c in G.points}
                  for b in G.points}
        G.pencil = {lam: {a: m & keep for a, m in self.pencil[lam].items()
                          if keep >> a & 1 and m & keep} for lam in G.points}
        return G

    def __len__(self):
        return len(self.points)


def build_geometry(completion, ts, variant="narrow"):
    return GeometrySet(completion, ts, variant=variant)


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
        # the most neighbours in p, the lowest id among equals
        pivot = -max([((p & neighbors[u]).bit_count(), -u)
                      for u in bits(p | x)])[1]
        for v in bits(p & ~neighbors[pivot]):
            expand(r | 1 << v, p & neighbors[v], x & neighbors[v])
            p &= ~(1 << v)
            x |= 1 << v

    expand(0, sum(1 << v for v in neighbors), 0)
    return out


def _quadrangles(G):
    """Quadrangles whose five points are pairwise consistent, once per
    four-point set: yields (flanks, quad, pairings), the four flanks, their
    mask and each pairing ((a, b), (c, d), vertices) with a < b, c < d,
    (a, b) < (c, d).  Its vertices are one mask:

        thru[a][b] & thru[c][d] & cons[a] & cons[b] & cons[c] & cons[d] & ~quad

    The lowest flank a heads the first pair of every pairing of its set, so
    all the pairings of one set turn up under one a and are grouped there."""
    thru, near = G.thru, G._cons
    for a in G.points:
        near_a = near[a]
        above_a = -(2 << a)
        found = {}
        for b in bits(near_a & above_a):
            ends = near_a & near[b] & ~(1 << a | 1 << b)
            tips = thru[a][b] & ends
            if not tips:
                continue
            for c in bits(ends & above_a):
                near_c = near[c]
                tips_c = tips & near_c & ~(1 << c)
                if not tips_c:
                    continue
                row = thru[c]
                for d in bits(ends & near_c & -(2 << c)):
                    lams = tips_c & row[d] & near[d] & ~(1 << d)
                    if lams:
                        quad = 1 << a | 1 << b | 1 << c | 1 << d
                        entry = found.get(quad)
                        if entry is None:
                            entry = found[quad] = ((a, b, c, d), quad, [])
                        entry[2].append(((a, b), (c, d), lams))
        yield from found.values()


def _inner_colinear(thru, a, b, c, d):
    """One of four distinct flanks is colinear with two others."""
    return bool(thru[a][b] & (1 << c | 1 << d)
                or thru[c][d] & (1 << a | 1 << b)
                or thru[a][c] & (1 << b | 1 << d)
                or thru[b][d] & (1 << a | 1 << c)
                or thru[a][d] & (1 << b | 1 << c)
                or thru[b][c] & (1 << a | 1 << d))


def _orthogonally_complete(G, chart):
    """GeometrySet.orthogonally_complete on a mask of points.

    A four-point subset holds a quadrangle with its vertex in the set when
    some other point of the set lies on both lines of one of its pairings.
    That test settles most subsets, so it runs before the corner test and
    inner colinearity."""
    thru, rows, cols = G.thru, G.perp_rows, G.perp_cols
    members = bits(chart)
    for y, z in combinations(members, 2):
        # x colinear with y, z needs x perp y, x perp z or y perp z
        if not rows[y] >> z & 1 and thru[y][z] & chart \
                & ~(1 << y | 1 << z | cols[y] | cols[z]):
            return False
    for a, b, c, d in combinations(members, 4):
        quad = 1 << a | 1 << b | 1 << c | 1 << d
        row_a, row_b = thru[a], thru[b]
        if not (row_a[b] & thru[c][d] | row_a[c] & row_b[d]
                | row_a[d] & row_b[c]) & chart & ~quad:
            continue
        if all((rows[x] & quad & ~(1 << x)).bit_count() < 2
               for x in (a, b, c, d)) \
                and not _inner_colinear(thru, a, b, c, d):
            return False
    return True


def _diagonal_witnesses(G, quad, pool=None):
    """Points (of the pool mask, when given) colinear with both diagonal
    pairs of the quadrangle and consistent with all four corners, in id
    order."""
    s1, s2, s3, s4 = quad
    hits = G.thru[s1][s3] & G.thru[s2][s4]
    if pool is not None:
        hits &= pool
    for s in quad:
        hits &= G._cons[s]
    return bits(hits)


def _paper_diagonal_witness(G, quad, pures):
    """The explicit quadrangle witness: star(xi) joined with the meet of the
    second diagonal, for a pure xi above the star of the first diagonal's
    meet and not above the second's; pures is the base pures' mask."""
    comp = G.completion
    base = comp.base
    reals = [comp.real_id(s) for s in quad]
    if None in reals:
        return None
    m13 = base.space.meet(reals[0], reals[2])
    m24 = base.space.meet(reals[1], reals[3])
    if base.space.bottom in (m13, m24):
        return None
    up13, up24 = (base.space.up[base.star_of(m)] for m in (m13, m24))
    for xi in bits(up13 & ~up24 & pures):
        chi = comp.sharpening([base.star_of(xi), m24])
        if chi is not None:
            return chi
    return None


# -- verifiers -----------------------------------------------------------------

def verify_projective(G):
    """Incidence-axiom report over the consistency cover: the degenerate
    triple axiom, the exchange axiom, nondegeneracy of quadrangles, and the
    quadrangle axiom with the narrow restriction on non-starred planes.

    The per-chart scans are replaced by the pairwise consistent sets they
    amount to (see the module docstring).  vy1 is vacuous, as thru[b][b] is
    every point, and says so.  Wide variant only: the general vy3 fails on
    the narrow family."""
    if G.variant != "wide":
        raise InputError("projective verification needs the wide variant")
    cliques = G.consistency_cover()
    charts = [sum(1 << x for x in U) for U in cliques]
    report = {"vy1": {"pass": True, "failures": [],
                      "cover_size": len(cliques), "vacuous": True},
              "vy2": _verify_exchange(G, charts)}
    report.update(_verify_quadrangles(G, charts))
    report["pass"] = all(v["pass"] for v in report.values()
                         if isinstance(v, dict))
    return report


def _verify_exchange(G, charts):
    """The exchange axiom.  "tuples" counts the (s1, s2, s3, s4), s3 < s4,
    with s1 and s2 covering the meet of s3 and s4, all pairwise consistent:
    each s1 of the seed thru[s3][s4] & cons[s3] & cons[s4] adds the
    popcount of seed & cons[s1]."""
    thru, pencil, cons = G.thru, G.pencil, G._cons
    bad = []
    tuples = 0
    for s3 in G.points:
        for s4 in bits(cons[s3] & -(2 << s3)):
            seed = thru[s3][s4] & cons[s3] & cons[s4]
            for s1 in bits(seed):
                met = seed & cons[s1]
                tuples += met.bit_count()
                # s1 is colinear with s2, s3 when s2 = s3 or s2 lies in
                # the pencil of s1 at s3
                miss = met & ~(pencil[s1].get(s3, 0) | 1 << s3)
                if miss:
                    bad.extend((s1, s2, s3, s4) for s2 in bits(miss))
    return {"pass": not bad,
            "failures": _scan_order(charts, bad,
                                    key=lambda t: (t[2], t[3], t[0], t[1])),
            "tuples": tuples}


def _verify_quadrangles(G, charts):
    """Nondegeneracy and the quadrangle axiom, general and restricted, in
    one walk over the quadrangles under consistency; no list of them is
    kept, and _scan_order sorts each failure list.  Genericity is six
    distinct pairwise meets, read as down masks."""
    thru, down = G.thru, G.completion.space.down
    pures = sum(1 << r for r in G.completion.base.space.maximals)
    centres = _starred_centres(G)
    complete = functools.cache(functools.partial(_orthogonally_complete, G))
    narrow_mask = G._pure_mask | sum(1 << p for p in G.hidden_narrow)
    nondegen_bad, general_bad, restricted_bad = [], [], []
    configs = n_general = n_restricted = n_starred = 0
    general_hits = restricted_hits = 0
    for (a, b, c, d), quad, pairings in _quadrangles(G):
        da, db, dc, dd = down[a], down[b], down[c], down[d]
        generic = quad & ~G._pure_mask and len(
            {da & db, da & dc, da & dd, db & dc, db & dd, dc & dd}) == 6
        for p1, p2, lams in pairings:
            configs += lams.bit_count()
            if generic:
                nondegen_bad.extend((lam,) + p1 + p2 for lam in bits(lams))
        if _inner_colinear(thru, a, b, c, d):
            continue
        starred = None
        for p1, p2, lams in pairings:
            corners = p1 + p2
            n_general += 1
            for diag in (corners, p1 + p2[::-1]):
                hits = _diagonal_witnesses(G, diag)
                if not hits:
                    general_bad.append(
                        (_first_vertex(charts, quad, lams),) + corners)
                    break
                paper = _paper_diagonal_witness(G, diag, pures)
                if paper is not None and paper in hits:
                    general_hits += 1
            if quad & ~narrow_mask:
                continue
            five = [lam for lam in bits(lams & narrow_mask)
                    if complete(quad | 1 << lam)]
            if not five:
                continue
            if starred is None:
                starred = any(not partners & ~quad
                              and not quad & ~partners & ~lines
                              for partners, lines in centres)
            if starred:
                n_starred += len(five)
                continue
            # what follows reads only the pairing: weigh it by the vertices
            n_restricted += len(five)
            for diag in (corners, p1 + p2[::-1]):
                hits = [w for w in _diagonal_witnesses(G, diag,
                                                       pool=narrow_mask)
                        if complete(quad | 1 << w)]
                if not hits:
                    restricted_bad.extend((lam,) + corners for lam in five)
                    break
                direct = _direct_diagonal_witness(G, diag)
                if direct is not None and direct in hits:
                    restricted_hits += len(five)
    return {
        "nondegeneracy": {"pass": not nondegen_bad,
                          "failures": _scan_order(charts, nondegen_bad),
                          "configs": configs},
        "vy3": {"pass": not general_bad,
                "failures": _scan_order(charts, general_bad),
                "configs": n_general,
                "paper_witness_hits": general_hits},
        "vy3_restricted": {"pass": not restricted_bad,
                           "failures": _scan_order(charts, restricted_bad),
                           "configs": n_restricted,
                           "starred_flagged": n_starred,
                           "paper_witness_hits": restricted_hits},
    }


def _first_vertex(charts, quad, lams):
    """The vertex a per-chart scan meets the pairing at first: the lowest
    one in the first chart, in cover order, that holds the four flanks and
    a vertex."""
    chart = next(c for c in charts if not quad & ~c and lams & c)
    return bits(lams & chart)[0]


def _scan_order(charts, failures, key=tuple):
    """Failures in the order a per-chart scan meets them: by the first
    chart, in cover order, that holds all their points, then by key."""
    def first_chart(entry):
        held = sum(1 << x for x in set(entry))
        return next(i for i, chart in enumerate(charts) if not held & ~chart)
    return sorted(failures, key=lambda entry: (first_chart(entry), key(entry)))


def _starred_centres(G):
    """(partners, lines) per pure centre (x, y) whose two starred partners
    (x*, y) and (x, y*) are pures: their mask, and that of the pure points
    sharing a coordinate with the centre.  A quadrangle's plane is starred
    exactly when, for some centre, its corners hold both partners and the
    rest lie on the centre's lines (no hidden point does).  One-step plane
    generation is unstable on hidden points, so this structural test
    replaces a point-set comparison."""
    coords = {p: G.coords[G.completion.real_id(p)] for p in G.pure_points}
    at = {t: p for p, t in coords.items()}
    left, right = G.factors
    out = []
    for x, y in coords.values():
        partners = (at.get((left.star_of(x), y)),
                    at.get((x, right.star_of(y))))
        if None not in partners:
            out.append((1 << partners[0] | 1 << partners[1],
                        sum(1 << p for p, (u, v) in coords.items()
                            if u == x or v == y)))
    return out


def _direct_diagonal_witness(G, quad):
    """The join of the two diagonal meets, when both meets are real."""
    comp = G.completion
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
    rows, cols = G.perp_rows, G.perp_cols
    report["o1"] = {"pass": not any(rows[p] >> p & 1 for p in pts)}
    # perp is symmetric on the points when every row equals its column
    report["o2"] = {"pass": all(rows[p] == cols[p] for p in pts)}

    o3_bad = _o3_failures(G)
    report["o3"] = {"pass": not o3_bad, "failures": o3_bad}

    # the hidden profiles and a chart -> verdict memo for the whole call
    profiles = {chi: G.hidden_profile(chi) for chi in pts
                if G.completion.real_id(chi) is None}
    complete = functools.cache(functools.partial(_orthogonally_complete, G))
    report["o4"], irr_bad = _verify_o4(G, profiles)
    # the double-starred pure pairs are the diagonals of starred planes;
    # their only third points live outside the narrow family
    report["irreducibility"] = {
        "pass": all(G.antipodal(a, b) for a, b in irr_bad),
        "theorem_as_stated": not irr_bad,
        "failures": irr_bad,
        "failures_are_antipodal": all(G.antipodal(a, b) for a, b in irr_bad),
    }

    report["structure_type2"] = _check_type2_structure(G, profiles, complete)
    report["structure_type1"] = _check_type1_structure(G, profiles, complete)
    if wide is not None:
        report["wide_exclusion"] = _check_wide_exclusion(G, wide)
    report["pass"] = all(v["pass"] for v in report.values()
                         if isinstance(v, dict))
    return report


def _o3_failures(G):
    """The o3 failures (a, b, e, d) chart by chart, e orthogonal to a and b,
    d on their line and not orthogonal to e.  Pairwise consistent points
    share a chart, so the charts are scanned only when some pair fails."""
    rows, cols, thru, cons = G.perp_rows, G.perp_cols, G.thru, G._cons
    if not any(thru[a][b] & cons[a] & cons[b] & cons[e] & ~rows[e]
               for a in G.points for b in bits(cons[a] & -(2 << a))
               for e in bits(cons[a] & cons[b] & cols[a] & cols[b])):
        return []
    bad = []
    for U in G.consistency_cover():
        chart = sum(1 << x for x in U)
        for a, b in combinations(U, 2):
            line = thru[a][b] & chart
            for e in bits(chart & cols[a] & cols[b]):
                bad.extend((a, b, e, d) for d in bits(line & ~rows[e]))
    return bad


def _verify_o4(G, profiles):
    """The o4 report over the ordered consistent pairs, and the pairs with
    no third point off the pair (irreducibility failures)."""
    cols, bad, irr_bad, witness_hits, thirds = G.perp_cols, [], [], 0, {}
    for a in G.points:
        profile = profiles.get(a)
        for b in bits(G._cons[a] & ~(1 << a)):
            pair = 1 << a | 1 << b
            third = thirds.get(pair)
            if third is None:
                third = thirds[pair] = _complete_thirds(G, a, b)
            if not third & cols[a]:
                bad.append((a, b))
            else:
                witness = _o4_paper_witness(G, a, b, profile)
                if witness is not None and third >> witness & 1:
                    witness_hits += 1
            if not third & ~pair:
                irr_bad.append((a, b))
    return ({"pass": not bad, "failures": bad,
             "paper_witness_hits": witness_hits}, irr_bad)


def _complete_thirds(G, a, b):
    """a, b and the e of thru[a][b] consistent with both with {a, b, e}
    orthogonally complete, as a mask: the chart fails on a pair y < z not
    perp, with the third point colinear and perp to neither; for {a, e},
    not perp is ~cols[a] below a and ~rows[a] above, colinear pencil[b][a]."""
    rows, cols, pencil = G.perp_rows, G.perp_cols, G.pencil
    pair = 1 << a | 1 << b
    pool = G.thru[a][b] & G._cons[a] & G._cons[b] & ~pair
    if not rows[min(a, b)] >> max(a, b) & 1:
        pool &= cols[a] | cols[b]
    for y, x in (a, b), (b, a):
        if not rows[x] >> y & 1:
            apart = ~cols[y] & (1 << y) - 1 | ~rows[y] & -(2 << y)
            pool &= ~(apart & pencil[x].get(y, 0) & ~rows[x])
    return pool | pair


def _o4_paper_witness(G, a, b, profile):
    """The orthogonal third point: star of a (or of a's distinguished pure)
    joined with the meet toward b.  profile is G.hidden_profile(a) for a
    hidden a, which depends on a alone."""
    comp = G.completion
    base = comp.base
    m_real = comp.real_id(comp.meet(a, b))
    if comp.real_id(a) is not None:
        if m_real is None or m_real == base.space.bottom:
            return None
        return comp.sharpening([base.star_of(comp.real_id(a)), m_real])
    if profile is None or m_real is None:
        return None
    gamma, oriented = profile
    if m_real == gamma:
        return comp.embed(oriented[gamma][0])
    return comp.sharpening([m_real, base.star_of(gamma)])


def _perp(G, x, y):
    return bool(G.perp_rows[x] >> y & 1)


def _check_type2_structure(G, profiles, complete):
    """Every narrow hidden point carries the canonical maximal orthogonally
    complete chart: the point plus the oriented pure pair over each of its
    components, with the stated orthogonality pattern.  profiles maps the
    hidden points to G.hidden_profile; complete is a memoised
    _orthogonally_complete."""
    bad = []
    for chi in sorted(G.hidden_narrow):
        profile = profiles[chi]
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
        pattern_ok = _perp(G, phi_g, chi) and not _perp(G, psi_g, chi) \
            and not _perp(G, phi_g, psi_g)
        for e, (p, q) in oriented.items():
            if e == gamma:
                continue
            p, q = comp.embed(p), comp.embed(q)
            pattern_ok &= _perp(G, p, q)
            pattern_ok &= not _perp(G, p, chi) and not _perp(G, q, chi)
            pattern_ok &= _perp(G, phi_g, p) and _perp(G, phi_g, q)
        if not pattern_ok:
            bad.append((chi, "orthogonality pattern"))
            continue
        if not complete(chart):
            bad.append((chi, "chart not orthogonally complete"))
            continue
        extendable = [p for p in bits(joint & ~chart)
                      if complete(chart | 1 << p)]
        if extendable:
            bad.append((chi, "chart not maximal", extendable))
    return {"pass": not bad, "failures": bad,
            "hidden_points": len(G.hidden_narrow)}


def _check_type1_structure(G, profiles, complete):
    """For every narrow hidden point and each of its components, the
    four-point single-trace chart exists with the stated partner point and
    orthogonality pattern; profiles and complete as for the type 2 check."""
    comp = G.completion
    base = comp.base
    bad = []
    for chi in sorted(G.hidden_narrow):
        profile = profiles[chi]
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
            got = tuple(_perp(G, x, y) for x, y in
                        ((p, q), (p, chi), (q, chi), (p, partner),
                         (q, partner), (chi, partner)))
            if got != expect:
                bad.append((chi, delta, "pattern", got, expect))
                continue
            U = {chi, p, q, partner}
            chart = sum(1 << x for x in U)
            if not all(G._cons[x] & chart == chart for x in U):
                bad.append((chi, delta, "chart not consistent"))
                continue
            if not complete(chart):
                bad.append((chi, delta, "not orthogonally complete"))
    return {"pass": not bad, "failures": bad}


def _check_wide_exclusion(G, wide):
    """Maximal charts of the wide geometry holding a hidden point outside
    the narrow family with two distinct pure traces must fail orthogonal
    completeness."""
    extra = wide.hidden_wide - wide.hidden_narrow
    down = wide.completion.base.space.down
    bad = []
    checked = 0
    for U in wide.consistency_cover():
        hiddens = [chi for chi in U if chi in extra]
        if not hiddens:
            continue
        # the reals below some real point of the chart
        below = 0
        for r in map(wide.completion.real_id, U):
            if r is not None:
                below |= down[r]
        for chi in hiddens:
            # the components of chi below a real point are its traces
            if (wide._parts[chi] & below).bit_count() >= 2:
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
    match the coordinate-pattern triple of components.  The first and the
    third cannot fail over two factors and are marked "vacuous": wr always
    holds and defines pure-pure consistency, and fewer than
    n_factors - 2 = 0 coordinates never agree."""
    base = G.completion.base
    report = {}

    wr_ok = all(G.consistent(x, y) == G.wr(x, y)
                for x, y in combinations(G.pure_points, 2))
    report["wr_matches_consistency"] = {"pass": wr_ok, "vacuous": True}

    rek1_bad = []
    hidden = G._point_mask & ~G._pure_mask
    for x in bits(hidden):
        for y in bits(G._cons[x] & hidden & -(2 << x)):
            shared = (G._parts[x] & G._parts[y]).bit_count()
            if shared != 1:
                rek1_bad.append((x, y, shared))
    report["rek1"] = {"pass": not rek1_bad, "failures": rek1_bad}

    n_factors = len(G.factors)
    zl_bad = []
    for five in _covered_quadrangles(base.space):
        agree = [i for i in range(n_factors)
                 if len({G.coords[s][i] for s in five}) == 1]
        if len(agree) < n_factors - 2:
            zl_bad.append(five)
    report["covered_quadruple_coordinates"] = {"pass": not zl_bad,
                                               "failures": zl_bad,
                                               "vacuous": True}

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
        if base.space.up[base.star_of(mu)] & (1 << nu | 1 << phi):
            continue
        gamma = base.space.meet(nu, phi)
        row = base.space.covers[gamma]
        if not row >> nu & row >> phi & 1:
            continue
        lam = comp.sharpening([base.star_of(mu), gamma])
        if lam is None or not comp.is_hidden(lam):
            continue
        pattern = _component_pattern(G, mu, nu, phi)
        checked += 1
        if pattern != set(comp.components(lam)):
            bad.append((mu, nu, phi))
    return {"pass": not bad, "failures": bad, "checked": checked}


def _component_pattern(G, mu, nu, phi):
    r"""The three components of mu |_| (nu /\ phi) predicted from the factor
    coordinates."""
    base = G.completion.base
    a, b_ = G.coords[mu]
    a1, b1 = G.coords[nu]
    a2, b2 = G.coords[phi]
    sj, sk = G.factors

    def delta(x, y):
        p = G._pure_of.get((x, y))
        if p is None:
            raise InputError("no pure with coordinates %r" % ((x, y),))
        return p

    m = base.space.meet
    return {
        m(delta(a2, b2), delta(a1, b1)),
        m(delta(a2, sk.star_of(b_)), delta(sj.star_of(a), b1)),
        m(delta(a1, sk.star_of(b_)), delta(sj.star_of(a), b2)),
    }


# -- covering preservation -------------------------------------------------------

def _covered_quadrangles(space):
    r"""The configurations (lam, a, b, c, d) of pures in which lam covers the
    two distinct pair meets a /\ b and c /\ d, all five pures distinct, by
    lam and then by the pairs in combination order."""
    cov = space.covers
    pures = space.pures()
    covered = {lam: [(a, b) for a, b in combinations(pures, 2)
                     if lam not in (a, b) and cov[space.meet(a, b)] >> lam & 1]
               for lam in pures}
    for lam in pures:
        for (a, b), (c, d) in combinations(covered[lam], 2):
            if len({a, b, c, d}) == 4 \
                    and space.meet(a, b) != space.meet(c, d):
                yield lam, a, b, c, d


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
    for lam, a, b, c, d in _covered_quadrangles(space):
        mab, mcd = space.meet(a, b), space.meet(c, d)
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
    pairs = [(a, b) for a, b in combinations(G.points, 2)
             if G.consistent(a, b)]
    lines = sorted({tuple(sorted(names[p] for p in G.line(a, b)))
                    for a, b in pairs})
    edges = sorted((names[a], names[b]) for a, b in pairs)
    return {
        "variant": G.variant,
        "points": [names[p] for p in G.points],
        "hidden": [names[p] for p in sorted(set(G.points)
                                            - set(G.pure_points))],
        "lines": [list(l) for l in lines],
        "consistency": [list(e) for e in edges],
    }


def consistency_dot(G):
    names = G.completion.space.names
    out = ["graph consistency {"]
    for p in G.points:
        out.append('  "%s";' % names[p])
    for a, b in combinations(G.points, 2):
        if G.consistent(a, b):
            out.append('  "%s" -- "%s";' % (names[a], names[b]))
    out.append("}")
    return "\n".join(out)
