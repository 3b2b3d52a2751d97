import copy
import random
from itertools import combinations

import networkx as nx
import numpy as np
import pytest

from qlattice.core_order import InputError, bits
from qlattice.geometry import (GeometrySet, _bron_kerbosch, _complete_thirds,
                               _diagonal_witnesses, _inner_colinear,
                               _orthogonally_complete, _quadrangles,
                               verify_projective, verify_ortho,
                               verify_invariants,
                               covering_preservation_report,
                               export_incidence)

import geometry_reference as ref
from order_reference import row_masks
from test_core_order import _brute_covers


def test_point_counts(geo_wide, geo_narrow):
    assert len(geo_wide.points) == 112
    assert len(geo_narrow.points) == 80
    assert len(geo_wide.pure_points) == 16
    assert len(geo_wide.hidden_wide) == 96
    assert len(geo_wide.hidden_narrow) == 64
    assert geo_wide.hidden_narrow <= geo_wide.hidden_wide


@pytest.mark.parametrize("name", ["geo_wide", "geo_narrow",
                                  "geo_z3z2_wide"])
def test_consistency_masks_match_definition(name, request):
    G = request.getfixturevalue(name)
    comp = G.completion
    want = {p: 1 << p for p in G.points}
    # (hidden x, hidden y) -> the verdicts met on such pairs
    verdicts = {}
    for x, y in combinations(G.points, 2):
        hit = ref.consistent(G, x, y)
        if hit:
            want[x] |= 1 << y
            want[y] |= 1 << x
        kind = (comp.is_hidden(x), comp.is_hidden(y))
        verdicts.setdefault(tuple(sorted(kind)), set()).add(hit)
    assert G._cons == want
    # every kind of pair meets both verdicts, except two pures, which are
    # always consistent over two factors
    assert verdicts == {(False, False): {True}, (False, True): {True, False},
                        (True, True): {True, False}}


@pytest.mark.parametrize("name", ["geo_wide", "geo_z3z2_wide"])
def test_narrowed_cut_equals_narrow_build(name, request):
    # the verify suite cuts the narrow geometry from the wide one; every
    # table is the narrow build's, and the wide one is left as it was
    wide = request.getfixturevalue(name)
    tables = ("variant", "points", "_point_mask", "_parts", "_cons", "thru",
              "pencil", "perp_rows", "perp_cols")
    before = copy.deepcopy([getattr(wide, k) for k in tables])
    cut = wide.narrowed()
    built = GeometrySet(wide.completion, _tensor_of(request, name), "narrow")
    assert sorted(vars(cut)) == sorted(vars(built))
    for key, value in vars(built).items():
        assert getattr(cut, key) == value, key
    assert cut.consistency_cover() == built.consistency_cover()
    assert [getattr(wide, k) for k in tables] == before


def _tensor_of(request, name):
    fixture = "two_qubit" if name == "geo_wide" else "z3z2"
    return request.getfixturevalue(fixture)[0]


def test_unknown_variant_raises_input_error(two_qubit):
    ts, comp = two_qubit
    with pytest.raises(InputError, match="unknown geometry variant"):
        GeometrySet(comp, ts, variant="medium")


def test_completion_over_another_tensor_raises_input_error(two_qubit, z3z2):
    with pytest.raises(InputError, match="does not sit over the tensor"):
        GeometrySet(two_qubit[1], z3z2[0])
    with pytest.raises(InputError, match="does not sit over the tensor"):
        GeometrySet(z3z2[1], two_qubit[0], variant="wide")


def test_consistency_cover_counts(geo_wide, geo_narrow):
    wide = geo_wide.consistency_cover()
    narrow = geo_narrow.consistency_cover()
    assert len(wide) == 481
    assert len(narrow) == 273
    assert max(len(u) for u in wide) == 16
    assert max(len(u) for u in narrow) == 16


def test_cover_members_are_pairwise_consistent(geo_narrow):
    rng = random.Random(3)
    cover = geo_narrow.consistency_cover()
    for u in rng.sample(list(cover), 20):
        for a, b in combinations(u, 2):
            assert geo_narrow.consistent(a, b)


def test_bron_kerbosch_against_networkx():
    rng = random.Random(42)
    for _ in range(10):
        n = rng.randint(4, 12)
        adj = {v: 0 for v in range(n)}
        g = nx.Graph()
        g.add_nodes_from(range(n))
        for i, j in combinations(range(n), 2):
            if rng.random() < 0.45:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
                g.add_edge(i, j)
        mine = {frozenset(bits(c)) for c in _bron_kerbosch(adj)}
        theirs = {frozenset(c) for c in nx.find_cliques(g)}
        assert mine == theirs


def test_bron_kerbosch_is_deterministic():
    adj = {0: 0b0110, 1: 0b0101, 2: 0b0011, 3: 0}
    assert _bron_kerbosch(adj) == _bron_kerbosch(adj)
    assert sorted(_bron_kerbosch(adj)) == [0b0111, 0b1000]


def test_projective_axioms(geo_wide):
    report = verify_projective(geo_wide)
    assert report["pass"]
    assert report["vy1"]["cover_size"] == 481
    # thru[b][b] is every point, so the degenerate triple axiom says so
    assert [k for k, v in report.items()
            if isinstance(v, dict) and v.get("vacuous")] == ["vy1"]
    assert report["vy1"]["vacuous"] is True
    assert report["vy2"]["tuples"] == 39648
    assert report["nondegeneracy"]["configs"] == 6912
    assert report["vy3"]["configs"] == 432
    assert report["vy3"]["paper_witness_hits"] == 864
    restricted = report["vy3_restricted"]
    assert restricted["configs"] == 192
    assert restricted["starred_flagged"] == 128
    assert restricted["paper_witness_hits"] == 384


def test_projective_verification_rejects_the_narrow_variant(geo_narrow):
    # the general quadrangle axiom fails on the narrow family (144 failures
    # on Z2⊗Z2), so the report would be read as a failed theorem
    with pytest.raises(InputError, match="needs the wide variant"):
        verify_projective(geo_narrow)


def test_ortho_axioms_and_structure(geo_narrow, geo_wide):
    report = verify_ortho(geo_narrow, wide=geo_wide)
    assert report["pass"]
    assert report["o1"]["pass"] and report["o2"]["pass"]
    assert report["o3"]["pass"] and report["o4"]["pass"]
    assert report["o4"]["paper_witness_hits"] == 1456
    assert report["structure_type2"]["hidden_points"] == 64
    assert report["wide_exclusion"]["charts_checked"] == 224


def test_irreducibility_fails_exactly_on_antipodal_pairs(geo_narrow,
                                                         geo_wide):
    report = verify_ortho(geo_narrow, wide=geo_wide)
    irr = report["irreducibility"]
    assert not irr["theorem_as_stated"]
    assert irr["failures_are_antipodal"]
    got = {frozenset(p) for p in irr["failures"]}
    # independent oracle: pure pairs star-related in both coordinates
    G = geo_narrow
    want = set()
    for x, y in combinations(G.pure_points, 2):
        cx = G.coords[G.completion.real_id(x)]
        cy = G.coords[G.completion.real_id(y)]
        if all(a != b for a, b in zip(cx, cy)) and \
                all(f.star_of(a) == b
                    for f, a, b in zip(G.factors, cx, cy)):
            want.add(frozenset((x, y)))
    assert len(want) == 8
    assert got == want


def test_colinearity_basics(geo_narrow):
    G = geo_narrow
    a, b = G.pure_points[0], G.pure_points[1]
    assert G.colinear(a, b, b)
    m = G.completion.meet(a, b)
    for c in G.points:
        if G.colinear(c, a, b):
            assert G.completion.space.covers[m] >> c & 1


def test_witness_masks_match_point_scan(geo_wide):
    # On the real consistency relation every point covering the meet of
    # two points is consistent with both, so the corner filters would go
    # untested: the copy gets a random symmetric relation instead.
    G = copy.copy(geo_wide)
    pts = G.points
    rng = random.Random(11)
    related = {p: {p} for p in pts}
    for x, y in combinations(pts, 2):
        if rng.random() < 0.6:
            related[x].add(y)
            related[y].add(x)
    G._cons = {p: sum(1 << q for q in related[p]) for p in pts}
    hat = G.completion.space
    covers = _brute_covers(hat)

    def scan(meets, corners, pool):
        return [p for p in pool if all(covers[m, p] for m in meets)
                and all(s in related[p] for s in corners)]

    # the third points of o4, read against a not symmetric perp too
    for H in (G, _asymmetric_perp(G, 3, 0.3)):
        for a, b in rng.sample(list(combinations(pts, 2)), 300):
            want = {a, b} | {e for e in scan([hat.meet(a, b)], (a, b), pts)
                             if ref.orthogonally_complete(H, {a, b, e},
                                                          quads=False)}
            assert bits(_complete_thirds(H, a, b)) == sorted(want)
    # diagonal pairs drawn from the pairs whose meet one point covers
    on = {p: [] for p in pts}
    for a, b in combinations(pts, 2):
        for p in pts:
            if covers[hat.meet(a, b), p]:
                on[p].append((a, b))
    centres = [p for p in pts if len(on[p]) > 1]
    narrow = sorted(set(G.pure_points) | G.hidden_narrow)
    narrow_mask = sum(1 << p for p in narrow)
    dropped = [False] * 4
    for _ in range(400):
        (s1, s3), (s2, s4) = rng.sample(on[rng.choice(centres)], 2)
        quad = (s1, s2, s3, s4)
        meets = [hat.meet(s1, s3), hat.meet(s2, s4)]
        want = scan(meets, quad, pts)
        assert _diagonal_witnesses(G, quad) == want
        assert _diagonal_witnesses(G, quad, pool=narrow_mask) \
            == scan(meets, quad, narrow)
        for k in range(4):
            dropped[k] |= scan(meets, quad[:k] + quad[k + 1:], pts) != want
    # every corner's filter decides some sampled quadrangle
    assert all(dropped)


def test_invariants(geo_wide):
    report = verify_invariants(geo_wide, samples=200, seed=1)
    assert report["pass"]
    # the two checks that cannot fail over two factors say so
    assert sorted(k for k, v in report.items()
                  if isinstance(v, dict) and v.get("vacuous")) \
        == ["covered_quadruple_coordinates", "wr_matches_consistency"]
    assert all(v["vacuous"] is True for v in report.values()
               if isinstance(v, dict) and "vacuous" in v)


def test_covering_preservation(two_qubit):
    ts, _ = two_qubit
    report = covering_preservation_report(ts.real_space)
    assert report["pass"]
    assert report["first"]["pairs"] == 120
    assert report["second"]["configs"] == 144


def test_incidence_export_shape(geo_narrow):
    data = export_incidence(geo_narrow)
    assert data["variant"] == "narrow"
    assert len(data["points"]) == 80
    assert len(data["hidden"]) == 64
    assert data["lines"]


# -- the mask tables against the per-call reference --------------------------

class _BentCompletion(object):
    """A completion whose cover rows are replaced; everything else,
    meets included, is the wrapped completion's."""

    def __init__(self, comp, covers):
        self._comp = comp
        self.space = copy.copy(comp.space)
        self.space.covers = covers

    def __getattr__(self, name):
        return getattr(self._comp, name)

    def meet(self, i, j):
        return self.space.meet(i, j)


def _bent_covers(G, seed, flips=100):
    """A copy whose completion cover rows have random point bits flipped,
    tables rebuilt: colinearity no longer follows a geometry, so the
    exchange axiom fails.  The narrow family is emptied, because the
    starred-plane test assumes the real consistency relation."""
    rng = random.Random(seed)
    covers = list(G.completion.space.covers)
    for _ in range(flips):
        covers[rng.randrange(len(covers))] ^= 1 << rng.choice(G.points)
    H = copy.copy(G)
    H.completion = _BentCompletion(G.completion, tuple(covers))
    H.thru, H.pencil = H._incidence_tables()
    H.hidden_narrow = frozenset()
    return H


def _fewer_consistent(G, seed, drops=200):
    """A copy with random consistent pairs made inconsistent."""
    rng = random.Random(seed)
    cons = dict(G._cons)
    pairs = [(x, y) for x, y in combinations(G.points, 2) if cons[x] >> y & 1]
    for x, y in rng.sample(pairs, drops):
        cons[x] ^= 1 << y
        cons[y] ^= 1 << x
    H = copy.copy(G)
    H._cons = cons
    H._cliques = None
    return H


def _merged_chart(G, seed, size=24):
    """A copy where a random point set is made pairwise consistent, so
    quadrangles cross the real charts.  The narrow family is kept, so that
    the starred-plane test meets hidden corners."""
    rng = random.Random(seed)
    group = sum(1 << x for x in rng.sample(G.points, size))
    H = copy.copy(G)
    H._cons = {p: m | group if group >> p & 1 else m
               for p, m in G._cons.items()}
    H._cliques = None
    return H


def _asymmetric_perp(G, seed, density):
    """A copy with a random, not symmetric, orthogonality matrix, which the
    reference reads as dense_perp and the copy as its mask rows."""
    H = copy.copy(G)
    n = G.completion.space.n
    H.dense_perp = np.random.default_rng(seed).random((n, n)) < density
    H.perp_rows, H.perp_cols = H._perp_masks(row_masks(H.dense_perp))
    assert (H.dense_perp != H.dense_perp.T).any()
    return H


def test_incidence_tables_match_meets_and_covers(geo_wide, geo_narrow):
    rng = random.Random(2)
    for G in (geo_wide, geo_narrow):
        hat = G.completion.space
        everything = sum(1 << p for p in G.points)
        for b in G.points:
            for c in G.points:
                want = everything if b == c \
                    else hat.covers[hat.meet(b, c)] & everything
                assert G.thru[b][c] == want
        for lam in rng.sample(G.points, 20):
            for a in G.points:
                want = sum(1 << b for b in G.points
                           if b != a and G.thru[a][b] >> lam & 1)
                assert G.pencil[lam].get(a, 0) == want
        H = _asymmetric_perp(G, 4, 0.3)
        for x in G.points:
            for y in G.points:
                assert H.perp_rows[x] >> y & 1 == H.dense_perp[x, y]
                assert H.perp_cols[y] >> x & 1 == H.dense_perp[x, y]


def test_colinear_and_line_match_reference(geo_wide):
    G = geo_wide
    rng = random.Random(8)
    pts = G.points
    for _ in range(3000):
        a, b, c = rng.choice(pts), rng.choice(pts), rng.choice(pts)
        assert G.colinear(a, b, c) == ref.colinear(G, a, b, c)
    for a, b in rng.sample(list(combinations(pts, 2)), 400):
        assert G.line(a, b) == ref.line(G, a, b)


def test_non_points_raise_input_error(geo_narrow):
    G = geo_narrow
    a = G.points[0]
    outside = next(x for x in range(G.completion.space.n)
                   if x not in G.points)
    for args in ((outside, a, a), (a, outside, a), (a, a, outside)):
        with pytest.raises(InputError):
            G.colinear(*args)
    with pytest.raises(InputError):
        G.line(a, outside)


def test_orthogonally_complete_matches_reference(geo_narrow, geo_wide,
                                                geo_z3z2_wide):
    rng = random.Random(6)
    decided_by_quadrangle = 0
    for G in (geo_narrow, _asymmetric_perp(geo_narrow, 1, 0.4),
              _asymmetric_perp(geo_wide, 2, 0.6), geo_z3z2_wide):
        # every chart size the verifiers pass, 3 to 8 points
        subsets = [set(rng.sample(U, min(k, len(U))))
                   for U in rng.sample(G.consistency_cover(), 40)
                   for k in (3, 4, 5, 6, 7, 8, len(U))]
        # a vertex and its flanks: five points that hold a quadrangle
        subsets += [{lam} | set(p1 + p2) for lam, p1, p2
                    in rng.sample(ref.quadrangle_configs(G), 200)]
        for S in subsets:
            want = ref.orthogonally_complete(G, S)
            assert G.orthogonally_complete(S) == want
            if len(S) == 5 and not want \
                    and ref.orthogonally_complete(G, S, quads=False):
                decided_by_quadrangle += 1
    # five points are enough for a quadrangle to decide completeness
    assert decided_by_quadrangle


class _Chart(object):
    """Five points 0..4 with the given colinear triples (x on the line of
    y, z) and symmetric orthogonal pairs, read as GeometrySet reads them."""

    def __init__(self, triples, perp):
        self.thru = {y: {z: 0 for z in range(5)} for y in range(5)}
        for x, y, z in triples:
            self.thru[y][z] |= 1 << x
            self.thru[z][y] |= 1 << x
        self.perp_rows = {p: 0 for p in range(5)}
        for x, y in perp:
            self.perp_rows[x] |= 1 << y
            self.perp_rows[y] |= 1 << x
        self.perp_cols = self.perp_rows


def test_inner_colinearity_excuses_a_quadrangle():
    # 4 is the vertex of the pairing (0, 1), (2, 3); no corner of the quad
    # is orthogonal to two others, and each colinear triple holds an
    # orthogonal pair, so the chart is complete exactly when 2 lies on the
    # line of 0 and 1 (the reference geometries never meet this case)
    vertex = [(4, 0, 1), (4, 2, 3)]
    perp = [(0, 1), (4, 2)]
    assert _orthogonally_complete(_Chart(vertex + [(2, 0, 1)], perp), 0b11111)
    assert not _orthogonally_complete(_Chart(vertex, perp), 0b11111)
    # and a corner orthogonal to two others excuses it too
    assert _orthogonally_complete(_Chart(vertex, perp + [(0, 2)]), 0b11111)


def test_quadrangles_match_reference(geo_wide):
    # the bent copy's colinearity is not symmetric, so each of the six
    # pair tests of inner colinearity decides some quadrangle
    for G in (geo_wide, _fewer_consistent(geo_wide, 1),
              _merged_chart(geo_wide, 2), _bent_covers(geo_wide, 3)):
        got = set()
        colinear = set()
        for flanks, quad, pairings in _quadrangles(G):
            # the walk hands down the four flanks of the set
            assert len(set(flanks)) == 4
            assert sum(1 << x for x in flanks) == quad
            for p1, p2, lams in pairings:
                assert sum(1 << x for x in p1 + p2) == quad
                got.update((lam, p1, p2) for lam in bits(lams))
            if _inner_colinear(G.thru, *flanks):
                colinear.add(quad)
        configs = ref.quadrangle_configs(G)
        assert got == set(configs)
        quads = {sum(1 << x for x in p1 + p2): p1 + p2
                 for _, p1, p2 in configs}
        assert colinear == {mask for mask, quad in quads.items()
                            if not ref.no_inner_colinearity(G, quad)}
        assert colinear and len(colinear) < len(quads)


def test_projective_reports_match_reference(geo_wide):
    failing = set()
    for G in (geo_wide, _bent_covers(geo_wide, 0),
              _fewer_consistent(geo_wide, 3), _merged_chart(geo_wide, 0)):
        report = verify_projective(G)
        assert report == ref.verify_projective(G)
        failing.update(k for k, v in report.items()
                       if isinstance(v, dict) and v["failures"])
    # every failure list is compared on some nonempty instance
    assert failing == {"vy2", "nondegeneracy", "vy3", "vy3_restricted"}


def test_ortho_reports_match_reference(geo_narrow, geo_wide):
    failing = set()
    cases = [(geo_narrow, geo_wide),
             (_asymmetric_perp(geo_narrow, 1, 0.3),
              _asymmetric_perp(geo_wide, 2, 0.3)),
             (_fewer_consistent(geo_narrow, 3),
              _fewer_consistent(geo_wide, 3))]
    bent = _bent_covers(geo_narrow, 5)
    bent.hidden_narrow = geo_narrow.hidden_narrow
    cases.append((bent, _bent_covers(geo_wide, 6)))
    for G, wide in cases:
        report = verify_ortho(G, wide=wide)
        assert report == ref.verify_ortho(G, wide=wide)
        failing.update(k for k, v in report.items()
                       if isinstance(v, dict) and not v["pass"])
    assert failing == {"o1", "o2", "o3", "o4", "irreducibility",
                       "structure_type1", "structure_type2",
                       "wide_exclusion"}
