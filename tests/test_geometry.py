import copy
import random
from itertools import combinations

import networkx as nx
import pytest

from qlattice.core_order import bits
from qlattice.geometry import (_bron_kerbosch, _diagonal_witnesses,
                               _third_points, verify_projective,
                               verify_ortho, verify_invariants,
                               covering_preservation_report,
                               export_incidence)

from test_core_order import _brute_covers


def test_point_counts(geo_wide, geo_narrow):
    assert len(geo_wide.points) == 112
    assert len(geo_narrow.points) == 80
    assert len(geo_wide.pure_points) == 16
    assert len(geo_wide.hidden_wide) == 96
    assert len(geo_wide.hidden_narrow) == 64
    assert geo_wide.hidden_narrow <= geo_wide.hidden_wide


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
    assert report["vy2"]["tuples"] == 39648
    assert report["nondegeneracy"]["configs"] == 6912
    assert report["vy3"]["configs"] == 432
    assert report["vy3"]["paper_witness_hits"] == 864
    restricted = report["vy3_restricted"]
    assert restricted["configs"] == 192
    assert restricted["starred_flagged"] == 128
    assert restricted["paper_witness_hits"] == 384


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
            assert G._cov_hat[m] >> c & 1


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

    for a, b in rng.sample(list(combinations(pts, 2)), 300):
        assert _third_points(G, a, b) == scan([hat.meet(a, b)], (a, b), pts)
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
