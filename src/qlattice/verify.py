"""The theorem suite: one named check per headline result.

Each check returns a JSON-ready dict with a "pass" flag and enough detail
to locate a failure; run_suite collects them under stable slugs.  The suite
is the single source of truth behind the command-line `verify` verb and the
acceptance tests.
"""

import random
from itertools import combinations, product

from .core_order import (YES, NO, BOT, BOOL_VALUES, InputError, StateSpace,
                         bool_space, bool_bullet)
from .realspaces import (bool_real_space, simplex_space, spin_space,
                         ortho_matrix, ortho_complement, orthoclosed_sets)
from .ontic import (closure_by_steps, closure_step, is_star_free,
                    is_unbounded_star_free, build_completion)
from .tensor import build_tensor, congruence_profile
from .contextuality import verify_model_iso
from .geometry import (build_geometry, verify_projective, verify_ortho,
                       verify_invariants, covering_preservation_report)
from . import quantum

SCHEMA_VERSION = 2


# -- inputs shared by several checks --------------------------------------------

# Built on first use; run_suite empties it when it returns.
_shared = {}


def _two_qubit_tensor():
    """The Z2 spin space and its minimal self-tensor (113 elements)."""
    if "tensor" not in _shared:
        z2 = spin_space(2)
        _shared["tensor"] = z2, build_tensor(z2, z2)
    return _shared["tensor"]


# -- 1. boolean domain tables ------------------------------------------------

_MEET_TABLE = {
    (YES, YES): YES, (YES, NO): BOT, (YES, BOT): BOT,
    (NO, YES): BOT, (NO, NO): NO, (NO, BOT): BOT,
    (BOT, YES): BOT, (BOT, NO): BOT, (BOT, BOT): BOT,
}
_BULLET_TABLE = {
    (YES, YES): YES, (YES, NO): NO, (YES, BOT): BOT,
    (NO, YES): NO, (NO, NO): NO, (NO, BOT): NO,
    (BOT, YES): BOT, (BOT, NO): NO, (BOT, BOT): BOT,
}
_BAR_TABLE = {YES: NO, NO: YES, BOT: BOT}


def check_bool_tables():
    """The 21 entries of the outcome domain's tables: meet and bar read off
    `bool_real_space()`, the real space under the boolean tensor square,
    and the bullet product."""
    rs = bool_real_space()
    bad = []
    for x, y in product(BOOL_VALUES, BOOL_VALUES):
        if rs.space.meet(x, y) != _MEET_TABLE[(x, y)]:
            bad.append(("meet", x, y))
        if bool_bullet(x, y) != _BULLET_TABLE[(x, y)]:
            bad.append(("bullet", x, y))
    for x in BOOL_VALUES:
        if rs.star.get(x, x) != _BAR_TABLE[x]:  # bar fixes the bottom
            bad.append(("bar", x))
    return {"pass": not bad, "failures": bad, "entries": 21}


# -- 2. pre-closure counterexample -------------------------------------------

def counterexample_lattice():
    """The ten-element semilattice on which one pre-closure step is not
    enough: three mid points pairwise joined below a common top layer."""
    names = ["BOT", "u1", "u2", "u3", "v1", "v2", "w", "x", "y", "z"]
    pairs = [("BOT", n) for n in names[1:]]
    pairs += [("u1", "w"), ("u1", "y"), ("u2", "y"), ("u2", "z"),
              ("u3", "w"), ("u3", "z"), ("v1", "w"), ("v1", "x"),
              ("v2", "z"), ("v2", "x")]
    return StateSpace.from_relation(names, pairs)


def check_preclosure_counterexample():
    space = counterexample_lattice()
    u = [space.index(n) for n in ("u1", "u2", "u3")]
    once = closure_step(space, u)
    twice = closure_step(space, once)
    got_once = sorted(space.names[i] for i in once)
    got_twice = sorted(space.names[i] for i in twice)
    ok = got_once == ["w", "y", "z"] and got_twice == ["w", "x", "y", "z"]
    return {"pass": ok, "once": got_once, "twice": got_twice}


# -- 3. closure idempotency ----------------------------------------------------

def _idempotent_on(space, members):
    first = closure_by_steps(space, members)
    return closure_by_steps(space, first) == first


def check_closure_idempotency():
    spaces = [("bool", bool_space()),
              ("simplex2", simplex_space(2).space),
              ("simplex3", simplex_space(3).space),
              ("zprime2", spin_space(2).space),
              ("zprime3", spin_space(3).space)]
    z2, ts = _two_qubit_tensor()
    comp = build_completion(z2)
    spaces.append(("zprime2-completion", comp.space))
    big = ts.space
    bad = []
    checked = 0
    for tag, space in spaces:
        others = [i for i in range(space.n) if i != space.bottom]
        for r in range(1, len(others) + 1):
            for sub in combinations(others, r):
                checked += 1
                if not _idempotent_on(space, sub):
                    bad.append((tag, sub))
    # then 1,000 seeded random subsets, of 1 to 6 elements, of the tensor
    rng = random.Random(20240901)
    others = [i for i in range(big.n) if i != big.bottom]
    for _ in range(1000):
        sub = rng.sample(others, rng.randint(1, 6))
        checked += 1
        if not _idempotent_on(big, sub):
            bad.append(("tensor-z2z2", tuple(sorted(sub))))
    return {"pass": not bad, "failures": bad[:5], "checked": checked}


# -- 4. simplex tensor ---------------------------------------------------------

def _is_simplex_tensor(ts):
    """Free meet-semilattice on the pure tensors, with unique pure
    decomposition for every element."""
    space = ts.space
    p = len(ts.pure_pairs)
    if space.n != (1 << p) - 1:
        return False
    seen = set()
    for idx in range(space.n):
        ups = frozenset(ts.cover_set(idx))
        if ups in seen:
            return False
        seen.add(ups)
        # by the expansion formula, not the built order
        gens = [ts.pure_pairs[k] for k in ups]
        if ts._cover_index.get(ts.normalize(gens)) != idx:
            return False
    return True


def check_simplex_tensor():
    bb = build_tensor(bool_real_space(), bool_real_space())
    z23 = build_tensor(simplex_space(2), simplex_space(3))
    return {
        "pass": len(bb) == 15 and _is_simplex_tensor(bb)
                and _is_simplex_tensor(z23),
        "bool_pair_size": len(bb),
        "bool_pair_simplex": _is_simplex_tensor(bb),
        "z2z3_simplex": _is_simplex_tensor(z23),
    }


# -- 5. completion of the two-axis spin space ----------------------------------

def _sharpen_by_steps(rs, members):
    """ontic.sharpen by the closure's steps, not off a completion's order."""
    bottom = rs.space.bottom
    out = closure_by_steps(rs.space, [m for m in members if m != bottom]
                           or [bottom])
    return out if out == (bottom,) or is_star_free(rs, out) else None


def check_completion_z2():
    z2 = spin_space(2)
    comp = build_completion(z2)
    n = len(comp.elements)
    hidden = sum(1 for i in range(n) if comp.is_hidden(i))
    # the order matrix, unpacked from the up-sets for the brute-force checks
    leq = [[bool(row >> j & 1) for j in range(n)] for row in comp.space.up]
    # the reals below each element
    traces = [frozenset(r for r in range(z2.space.n)
                        if leq[comp.embed(r)][chi]) for chi in range(n)]
    # joins by the closure's steps on the reals, not off the built order
    element_of = {u: k for k, u in enumerate(comp.elements)} | {None: None}
    galois_bad = []
    for j, trace in enumerate(traces):
        lam = element_of[_sharpen_by_steps(z2, trace)]
        for chi in range(n):
            left = lam is not None and leq[lam][chi]
            right = trace <= traces[chi]
            if left != right:
                galois_bad.append((j, chi))
    order_bad = []
    for i in range(n):
        for j in range(n):
            lower = [k for k in range(n) if leq[k][i] and leq[k][j]]
            best = [k for k in lower
                    if all(leq[m][k] for m in lower)]
            if len(best) != 1 or best[0] != comp.meet(i, j):
                order_bad.append(("meet", i, j))
            upper = [k for k in range(n) if leq[i][k] and leq[j][k]]
            least = [k for k in upper if all(leq[k][m] for m in upper)]
            want = least[0] if len(least) == 1 else None
            joined = _sharpen_by_steps(z2, comp.elements[i] + comp.elements[j])
            if element_of[joined] != want:
                order_bad.append(("join", i, j))
    ok = (n == 9 and hidden == 4 and not galois_bad and not order_bad)
    return {"pass": ok, "elements": n, "hidden": hidden,
            "galois_pairs": n * n, "galois_failures": galois_bad[:5],
            "order_failures": order_bad[:5]}


# -- 6. tensor order oracle ------------------------------------------------------

def check_tensor_congruence():
    ts = _two_qubit_tensor()[1]
    gen_sets = []
    for r in (1, 2, 3):
        gen_sets.extend(combinations(ts.pure_pairs, r))
    # the congruence profiles of each class, one per generator set; two
    # generator sets are congruent exactly when their profiles are equal
    classes = {}
    for gens in gen_sets:
        classes.setdefault(ts._cover_index[ts.normalize(gens)], []).append(
            congruence_profile(ts, gens))
    bad = []
    checked = 0
    for idx, profiles in classes.items():
        for other in profiles[1:]:
            checked += 1
            if other != profiles[0]:
                bad.append(("within", idx))
    reps = sorted(classes.items())
    for (i1, p1), (i2, p2) in combinations(reps, 2):
        checked += 1
        if p1[0] == p2[0]:
            bad.append(("across", i1, i2))
    return {"pass": not bad, "failures": bad[:5],
            "generator_sets": len(gen_sets), "classes": len(classes),
            "oracle_calls": checked}


# -- 7. Bell pipeline --------------------------------------------------------------

def check_bell():
    z2, ts = _two_qubit_tensor()
    a, b = z2.space.index("a"), z2.space.index("b")
    scenario = quantum.BellScenario(z2, z2, a, b, a, b, ts=ts)
    bb = quantum.bool_square()
    want = {
        "13": bb.index_of([(NO, BOT), (YES, NO)]),
        "14": bb.index_of([(YES, BOT), (NO, YES)]),
        "23": bb.index_of([(YES, NO), (BOT, YES)]),
        "24": bb.index_of([(BOT, BOT)]),
    }
    phi = quantum.bell_marginals(scenario)
    marginals_ok = phi == want
    lam = quantum.lambda_search(phi["13"], phi["14"], phi["23"], phi["24"])
    real_bad = []
    for rid in range(ts.space.n):
        m = {}
        for a in (1, 2):
            for b in (3, 4):
                m["%d%d" % (a, b)] = quantum.measurement_image(
                    scenario, scenario.phi[a - 1], scenario.rho[b - 3],
                    (rid,))
        found = quantum.lambda_search(m["13"], m["14"], m["23"], m["24"])
        if found is None:
            real_bad.append(rid)
    ok = marginals_ok and lam is None and not real_bad
    return {"pass": ok, "marginals_match": marginals_ok,
            "lambda_absent": lam is None,
            "real_states_scanned": ts.space.n,
            "real_failures": real_bad[:5]}


# -- 8. broadcasting ----------------------------------------------------------------

def check_broadcasting():
    reports = {
        "zprime2": quantum.broadcast_obstruction(spin_space(2)),
        "zprime3": quantum.broadcast_obstruction(spin_space(3)),
        "bool": quantum.broadcast_obstruction(bool_real_space()),
        "simplex2": quantum.broadcast_obstruction(simplex_space(2)),
        "simplex3": quantum.broadcast_obstruction(simplex_space(3)),
    }
    ok = (not reports["zprime2"]["broadcasts"]
          and not reports["zprime3"]["broadcasts"]
          and reports["zprime2"]["witness"]["bottom_images"][0]
          != reports["zprime2"]["witness"]["bottom_images"][1]
          and all(reports[k]["broadcasts"]
                  for k in ("bool", "simplex2", "simplex3")))
    return {"pass": ok,
            "verdicts": {k: v["broadcasts"] for k, v in reports.items()},
            "zprime2_clash": reports["zprime2"]["witness"]["bottom_images"]}


# -- 9. contextuality ---------------------------------------------------------------

def check_contextuality():
    comp2 = build_completion(spin_space(2))
    rep2 = verify_model_iso(comp2)
    comp3 = build_completion(simplex_space(3))
    rep3 = verify_model_iso(comp3)
    ok = (rep2["bijective"] and rep2["meet_homomorphism"]
          and rep2["states"] == 9 and rep2["contextual"]
          and rep3["bijective"] and not rep3["contextual"])
    return {"pass": ok, "zprime2": rep2, "simplex3": rep3}


# -- 10. orthoclosure ----------------------------------------------------------------

def check_orthoclosure():
    """Double orthogonal and overlap on every closed set, and the antitone
    law: "subset_pairs" counts the ordered subset pairs it ranges over, of
    which only the 3⁹ nested ones can fail and are compared."""
    comp = build_completion(spin_space(2))
    emb = comp.embedding
    orth = ortho_matrix(emb)
    family = orthoclosed_sets(emb, orth)
    n = comp.space.n
    bad = []
    for h in family:
        perp = ortho_complement(emb, h, orth)
        if ortho_complement(emb, perp, orth) != h:
            bad.append(("double", sorted(h)))
        if h & perp:
            bad.append(("overlap", sorted(h)))
    subsets = [s for r in range(n + 1) for s in combinations(range(n), r)]
    perps = [ortho_complement(emb, a, orth) for a in subsets]
    bad.extend(("antitone", list(subsets[i]), list(subsets[j]))
               for i, j in _antitone_failures(subsets, perps, n))
    return {"pass": not bad, "failures": bad[:5],
            "closed_sets": len(family), "subset_pairs": len(subsets) ** 2}


def _antitone_failures(subsets, perps, n):
    """The (i, j), subsets[i] inside subsets[j] and perps[j] not inside
    perps[i], in the order of a scan over all pairs of the subsets of
    range(n); supersets are read by submask enumeration."""
    rank = {sum(1 << x for x in a): i for i, a in enumerate(subsets)}
    out = []
    for a, i in rank.items():
        free, s, above = ((1 << n) - 1) & ~a, 0, [i]
        while s != free:
            s = (s - free) & free  # the next submask of free, upwards
            above.append(rank[a | s])
        out += [(i, j) for j in sorted(above) if not perps[j] <= perps[i]]
    return out


# -- 11/12. geometry and covering preservation ---------------------------------------

def check_geometry():
    ts = _two_qubit_tensor()[1]
    comp = build_completion(ts.real_space)
    wide = build_geometry(comp, ts, variant="wide")
    narrow = wide.narrowed()
    inv = verify_invariants(wide, samples=400, seed=7)
    proj = verify_projective(wide)
    orth = verify_ortho(narrow, wide=wide)
    ok = inv["pass"] and proj["pass"] and orth["pass"]
    return {"pass": ok, "invariants": inv, "projective": proj,
            "ortho": orth}


def check_covering_preservation():
    ts = _two_qubit_tensor()[1]
    return covering_preservation_report(ts.real_space)


# -- 13. non-completeness --------------------------------------------------------------

def check_non_completeness():
    rs = _two_qubit_tensor()[1].real_space
    space = rs.space
    pures = sorted(space.pures())
    for p, q in combinations(pures, 2):
        if space.meet(p, q) == space.bottom:
            continue
        if not is_unbounded_star_free(rs, (p, q)):
            continue
        if is_star_free(rs, closure_by_steps(space, (p, q))):
            continue
        chain = [tuple(sorted((p, q)))]
        current = chain[0]
        for _ in range(space.n):
            nxt = closure_step(space, current)
            if nxt == current:
                break
            chain.append(nxt)
            current = nxt
        return {"pass": True,
                "witness": [space.names[p], space.names[q]],
                "growth_chain": [[space.names[i] for i in step]
                                 for step in chain]}
    return {"pass": False, "witness": None, "growth_chain": []}


# -- suite --------------------------------------------------------------------------------

CHECKS = [
    ("bool-tables", "outcome-domain tables", check_bool_tables),
    ("preclosure-counterexample", "pre-closure is not a closure",
     check_preclosure_counterexample),
    ("closure-idempotency", "iterated closure is idempotent",
     check_closure_idempotency),
    ("simplex-tensor", "tensor of simplexes is a simplex",
     check_simplex_tensor),
    ("completion-zprime2", "two-axis completion and its Galois law",
     check_completion_z2),
    ("tensor-congruence", "normalize agrees with the evaluation oracle",
     check_tensor_congruence),
    ("bell", "Bell marginals and the global-state scan", check_bell),
    ("broadcasting", "broadcast dichotomy", check_broadcasting),
    ("contextuality", "descriptions-states isomorphism",
     check_contextuality),
    ("orthoclosure", "orthoclosure laws", check_orthoclosure),
    ("geometry", "projective and orthogonality axioms", check_geometry),
    ("covering-preservation", "pure meets are covered",
     check_covering_preservation),
    ("non-completeness", "the completion is not complete",
     check_non_completeness),
]

SUITES = {
    "closure": ["preclosure-counterexample", "closure-idempotency"],
    "tensor": ["simplex-tensor", "tensor-congruence",
               "covering-preservation"],
    "completion": ["completion-zprime2", "non-completeness"],
    "quantum": ["bell", "broadcasting"],
    "geometry": ["geometry"],
    "all": [slug for slug, _, _ in CHECKS],
}


def run_suite(names=None):
    """Run the named checks (default all); returns the versioned report."""
    if names is None:
        names = [slug for slug, _, _ in CHECKS]
    by_slug = {slug: (anchor, fn) for slug, anchor, fn in CHECKS}
    unknown = [n for n in names if n not in by_slug]
    if unknown:
        raise InputError("unknown checks: %s" % ", ".join(unknown))
    out = {"version": SCHEMA_VERSION, "checks": {}}
    try:
        for slug in names:
            anchor, fn = by_slug[slug]
            report = fn()
            report["anchor"] = anchor
            out["checks"][slug] = report
    finally:
        _shared.clear()
    out["pass"] = all(c["pass"] for c in out["checks"].values())
    return out
