import random
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlattice import chu
from qlattice.core_order import InputError, StateSpace, bits
from qlattice.realspaces import (make_space, bool_real_space, simplex_space,
                                 spin_space, is_deterministic,
                                 is_completely_indeterministic, is_linear,
                                 ortho_matrix, ortho_complement,
                                 orthoclosed_sets,
                                 RealSpace, RealStructureEmbedding,
                                 real_effects_of, validate_embedding,
                                 validate_real, _star_problems)
from qlattice.ontic import build_completion
from qlattice.tensor import build_tensor

from geometry_reference import ortho_outer_product
from order_reference import row_masks
from test_core_order import _brute_covers
from test_ontic import _inclusion_space


def test_bool_real_space_shape():
    rs = bool_real_space()
    assert rs.space.n == 3
    y, n = rs.space.index("Y"), rs.space.index("N")
    assert rs.star_of(y) == n and rs.star_of(n) == y


def test_simplex_sizes():
    # free meet-semilattice on n pures has 2^n - 1 elements
    for n in (2, 3, 4):
        assert simplex_space(n).space.n == 2 ** n - 1
        assert len(simplex_space(n).space.pures()) == n


def test_spin_sizes():
    # n axes give 2n pures sharing a single bottom
    for n in (2, 3):
        rs = spin_space(n)
        assert rs.space.n == 2 * n + 1
        assert len(rs.space.pures()) == 2 * n


def test_star_is_a_fixpoint_free_involution():
    rs = spin_space(3)
    for p in rs.space.pures():
        q = rs.star_of(p)
        assert q != p
        assert rs.star_of(q) == p


def test_star_pairs_meet_at_bottom():
    rs = spin_space(2)
    for p in rs.space.pures():
        assert rs.space.meet(p, rs.star_of(p)) == rs.space.bottom


def test_classification():
    assert is_deterministic(bool_real_space())
    assert is_deterministic(simplex_space(3))
    assert not is_deterministic(spin_space(2))
    assert is_completely_indeterministic(spin_space(2))


def _linear_by_leq(rs, comp):
    """is_linear with the covers read off leq: every pure pair whose meet
    both pures cover has a cover of that meet in the completion above
    neither pure."""
    space, hat = rs.space, comp.space
    covers, hat_covers = _brute_covers(space), _brute_covers(hat)
    for a, b in combinations(space.pures(), 2):
        m = space.meet(a, b)
        if not (covers[m, a] and covers[m, b]):
            continue
        ah, bh, mh = comp.embed(a), comp.embed(b), comp.embed(m)
        if not any(hat_covers[mh, c] and not hat.leq[ah, c]
                   and not hat.leq[bh, c] for c in range(hat.n)):
            return False
    return True


def test_is_linear_matches_leq_oracle(two_qubit):
    ts, comp = two_qubit
    cases = [(rs, build_completion(rs))
             for rs in (bool_real_space(), spin_space(2), spin_space(3),
                        simplex_space(3))]
    cases.append((ts.real_space, comp))
    verdicts = []
    for rs, completion in cases:
        want = _linear_by_leq(rs, completion)
        assert is_linear(rs) == want
        verdicts.append(want)
    assert verdicts == [False, True, True, False, True]


def test_make_space_kinds():
    # every alias, in any case, names the same constructor
    for kind, size, elements in (
            ("bool", None, 3), ("BOOL", None, 3),
            ("Z", 3, 7), ("z", 3, 7), ("simplex", 3, 7), ("Simplex", 3, 7),
            ("Zprime", 2, 5), ("zprime", 2, 5), ("spin", 2, 5),
            ("SPIN", 2, 5)):
        assert make_space(kind, size).space.n == elements, kind
    rs = spin_space(2)
    assert make_space("Custom", rs.to_json()).space.names == rs.space.names
    for kind, message in (("nosuch", "unknown space kind 'nosuch'"),
                          ("Z", "simplex constructor needs a size"),
                          ("spin", "spin constructor needs a size"),
                          ("custom", "custom constructor needs JSON data")):
        with pytest.raises(InputError) as err:
            make_space(kind)
        assert str(err.value) == message


def test_json_roundtrip():
    rs = spin_space(2)
    from qlattice.realspaces import RealSpace
    again = RealSpace.from_json(rs.to_json())
    assert list(again.space.names) == list(rs.space.names)
    for p in rs.space.pures():
        assert again.star_of(p) == rs.star_of(p)


# -- orthoclosure on the completed two-axis space ----------------------------

@pytest.fixture(scope="module")
def emb(z2_completion):
    return z2_completion.embedding


def test_orthoclosed_family_size(emb):
    assert len(orthoclosed_sets(emb)) == 16


def test_double_orthocomplement(emb):
    orth = ortho_matrix(emb)
    n = len(orth)
    for bits in range(1 << n):
        subset = frozenset(i for i in range(n) if bits >> i & 1)
        perp = ortho_complement(emb, subset, orth)
        # one complement already lands on a closed set
        assert ortho_complement(emb, ortho_complement(emb, perp, orth),
                                orth) == perp


def test_double_orthogonal_is_a_closure(emb):
    orth = ortho_matrix(emb)
    n = len(orth)
    for bits in range(1 << n):
        subset = frozenset(i for i in range(n) if bits >> i & 1)
        one = ortho_complement(emb, subset, orth)
        two = ortho_complement(emb, one, orth)
        assert subset <= two
        # closing again changes nothing
        assert ortho_complement(emb, two, orth) == one


def test_closed_sets_disjoint_from_their_complement(emb):
    orth = ortho_matrix(emb)
    for closed in orthoclosed_sets(emb, orth):
        assert not (closed & ortho_complement(emb, closed, orth))


_Z2C = build_completion(spin_space(2))
_EMB = _Z2C.embedding
_ORTH = ortho_matrix(_EMB)
_N = len(_ORTH)


@settings(max_examples=150, deadline=None)
@given(st.sets(st.integers(0, _N - 1)), st.sets(st.integers(0, _N - 1)))
def test_orthocomplement_is_antitone(a, b):
    small, large = frozenset(a), frozenset(a | b)
    pa = ortho_complement(_EMB, small, _ORTH)
    pb = ortho_complement(_EMB, large, _ORTH)
    assert pb <= pa


@pytest.mark.parametrize("na", [2, 3], ids=["z2z2", "z3z2"])
def test_ortho_rows_match_outer_product_formula(na, two_qubit, z3z2):
    comp = (two_qubit if na == 2 else z3z2)[1]
    emb = comp.embedding
    dense = ortho_outer_product(emb)
    rows = ortho_matrix(emb)
    assert rows == row_masks(dense)
    # complements read off the rows against the columns of the matrix
    rng = random.Random(na)
    n = comp.space.n
    for size in (0, 1, 1, 2, 2, 3, 5):
        subset = rng.sample(range(n), size)
        want = np.flatnonzero(dense[:, subset].all(axis=1)).tolist()
        assert ortho_complement(emb, subset, rows) == frozenset(want)


# -- star order reversal and effect separation against the leq and effect
# loops ----------------------------------------------------------------------

def _oracle_order_reversal(space, star, nonbottom):
    for i in nonbottom:
        for j in nonbottom:
            if space.leq[i, j] and not space.leq[star[j], star[i]]:
                return ["star not order-reversing at (%r, %r)"
                        % (space.names[i], space.names[j])]
    return []


def _oracle_separation(ambient, real, star):
    effects = real_effects_of(ambient, real, star)
    profiles = {}
    for s in range(ambient.n):
        p = tuple(chu.evaluate(ambient, l, s) for l in effects)
        if p in profiles:
            return ["real effects cannot separate %r from %r"
                    % (ambient.names[profiles[p]], ambient.names[s])]
        profiles[p] = s
    return []


def _unchecked_embedding(ambient, real, star):
    emb = object.__new__(RealStructureEmbedding)
    emb.ambient = ambient
    emb.real = tuple(sorted(real))
    emb.real_mask = sum(1 << r for r in emb.real)
    emb.star = dict(star)
    return emb


def _problems_of_kind(problems, prefix):
    return [p for p in problems if p.startswith(prefix)]


def test_inseparable_embedding_matches_effect_oracle():
    # the hidden h lies above the real a and above no other real, as does
    # a itself
    ambient = StateSpace.from_relation(
        ["BOT", "a", "a*", "h", "k"],
        [("BOT", "a"), ("BOT", "a*"), ("a", "h"), ("a", "k")])
    real, star = [0, 1, 2], {1: 2, 2: 1}
    want = _oracle_separation(ambient, real, star)
    assert want == ["real effects cannot separate 'a' from 'h'"]
    assert validate_embedding(_unchecked_embedding(ambient, real, star)) == want
    with pytest.raises(InputError, match="cannot separate 'a' from 'h'"):
        RealStructureEmbedding(ambient, real, star)


def test_non_reversing_star_matches_leq_oracle():
    rs = simplex_space(3)
    space = rs.space
    star = dict(rs.star)
    # swap the stars of two pures: u1 now maps to u13, which lies above
    # u3 = star(u12), although u1 lies above u12
    u1, u2 = space.index("u1"), space.index("u2")
    star[u1], star[u2] = star[u2], star[u1]
    nonbottom = [i for i in range(space.n) if i != space.bottom]
    want = _oracle_order_reversal(space, star, nonbottom)
    assert want
    problems = validate_real(SimpleNamespace(space=space, star=star))
    assert _problems_of_kind(problems, "star not order-reversing") == want


def test_cover_pair_reversal_names_the_full_scan_pair(two_qubit):
    # a standalone space tests order reversal on its cover pairs and scans
    # the comparable pairs only to name a failure.  Stars re-paired at two
    # random axes stay involutive; the pair named is the oracle's first
    rng = random.Random(9)
    failed = 0
    for rs in (simplex_space(3), two_qubit[0].real_space):
        space = rs.space
        nonbottom = [i for i in range(space.n) if i != space.bottom]
        for _ in range(15):
            x = rng.choice(nonbottom)
            y = rng.choice([i for i in nonbottom if i not in (x, rs.star[x])])
            star = dict(rs.star)
            star[x], star[rs.star[y]] = rs.star[y], x
            star[y], star[rs.star[x]] = rs.star[x], y
            want = _oracle_order_reversal(space, star, nonbottom)
            problems = validate_real(SimpleNamespace(space=space, star=star))
            assert _problems_of_kind(problems,
                                     "star not order-reversing") == want
            failed += bool(want)
    assert 5 < failed < 30


def _oracle_meet_closure(ambient, real):
    """The first pair of reals, in id order, whose meet (read off leq) is
    not real."""
    leq, real = ambient.leq, sorted(real)
    for a in real:
        for b in real:
            lower = np.flatnonzero(leq[:, a] & leq[:, b])
            meet = next(m for m in lower if leq[lower, m].all())
            if meet not in real:
                return ["real subset not meet-closed at (%r, %r)"
                        % (ambient.names[a], ambient.names[b])]
    return []


def test_meet_closure_shortcut_only_on_down_closed_reals(z2_completion):
    # down-closed reals are meet-closed at once; any other real subset is
    # scanned pair by pair, meet-closed or not
    rng = random.Random(3)
    seen = set()
    for ambient in (simplex_space(4).space, z2_completion.space):
        for _ in range(60):
            real = {ambient.bottom} | set(rng.sample(range(ambient.n),
                                                     rng.randint(1, 5)))
            if rng.random() < 0.3:  # down-close it
                real = {j for r in real for j in bits(ambient.down[r])}
            problems = validate_embedding(
                _unchecked_embedding(ambient, real, {}))
            want = _oracle_meet_closure(ambient, real)
            assert _problems_of_kind(problems, "real subset not meet") \
                == want
            down_closed = all(ambient.down[r] >> j & 1 == 0 or j in real
                              for r in real for j in range(ambient.n))
            seen.add((down_closed, bool(want)))
    assert seen == {(True, False), (False, False), (False, True)}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 31), min_size=1, max_size=7, unique=True),
       st.data())
def test_star_checks_match_oracles_on_drawn_embeddings(family, data):
    space = _inclusion_space(family)
    chosen = data.draw(st.sets(st.integers(0, space.n - 1)))
    real = {space.bottom} | chosen
    # close the real subset under meets so that every check runs
    while True:
        more = {space.meet(a, b) for a in real for b in real} - real
        if not more:
            break
        real |= more
    nonbottom = sorted(real - {space.bottom})
    star = {i: data.draw(st.sampled_from(nonbottom)) for i in nonbottom} \
        if nonbottom else {}
    problems = validate_embedding(_unchecked_embedding(space, real, star))
    assert _problems_of_kind(problems, "star not order-reversing") == \
        _oracle_order_reversal(space, star, nonbottom)
    assert _problems_of_kind(problems, "real effects cannot separate") == \
        _oracle_separation(space, real, star)
    if real == set(range(space.n)):
        problems = validate_real(SimpleNamespace(space=space, star=star))
        assert _problems_of_kind(problems, "star not order-reversing") == \
            _oracle_order_reversal(space, star, nonbottom)


# -- JSON round trips through the mask closure -------------------------------

_JSON_SPACES = {
    "bool": bool_real_space,
    "spin2": lambda: spin_space(2),
    "spin3": lambda: spin_space(3),
    "spin4": lambda: spin_space(4),
    "simplex3": lambda: simplex_space(3),
    "z2z2": lambda: build_tensor(spin_space(2), spin_space(2)).real_space,
}


@pytest.mark.parametrize("name", sorted(_JSON_SPACES))
def test_json_round_trips_keep_masks_bottom_and_star(name):
    rs = _JSON_SPACES[name]()
    space = rs.space
    for again in (StateSpace.from_json(space.to_json()),
                  RealSpace.from_json(rs.to_json()).space):
        assert again.names == space.names
        assert again.up == space.up
        assert again.bottom == space.bottom
    assert RealSpace.from_json(rs.to_json()).star == rs.star


@pytest.mark.parametrize("data, message", [
    ({"elements": ["a"]}, "space JSON needs 'elements' and 'leq' keys"),
    ([], "space JSON needs 'elements' and 'leq' keys"),
    ({"elements": ["a", "b"], "leq": [["a", "c"]]},
     "leq pair ('a', 'c') uses an unknown element"),
    ({"elements": ["a", "b"], "leq": [["a", "b"], ["b", "a"]]},
     "antisymmetry fails for 'a', 'b'"),
    ({"elements": ["a", "a"], "leq": []}, "duplicate element names: a"),
    ({"elements": ["a", "b"], "leq": [["a", "b"]], "bottom": "b"},
     "declared bottom 'b' is not the least element"),
    ({"elements": ["o", "a", "b"], "leq": [["o", "a"], ["o", "b"]]},
     "real space JSON needs a 'star' key"),
    ({"elements": ["o", "a", "b"], "leq": [["o", "a"], ["o", "b"]],
      "star": [["a", "c"]]}, "unknown element 'c'"),
    ({"elements": ["o", "a", "b"], "leq": [["o", "a"], ["o", "b"]],
      "star": [["a", "b"], ["b", "b"]]}, "star not involutive at 'a'"),
])
def test_malformed_json_raises_input_error(data, message):
    with pytest.raises(InputError) as err:
        RealSpace.from_json(data)
    assert message in str(err.value)


# -- the star axioms against an oracle that reads only leq --------------------

def _oracle_star_problems(space, star, nonbottom, standalone):
    """_star_problems, read off the dense order alone: every axiom is one
    scan over elements or pairs, and each reports its first violation."""
    leq, names, n = space.leq, space.names, space.n
    bottom = next(i for i in range(n) if leq[i].all())
    for i in nonbottom:
        if i not in star:
            return ["star undefined at %r" % names[i]], True
        if standalone and not (0 <= star[i] < n and star[i] != bottom):
            return ["star of %r leaves the non-bottom elements"
                    % names[i]], True
        if not standalone and star[i] not in nonbottom:
            return ["star of %r leaves the non-bottom reals"
                    % names[i]], True
    problems = []
    if standalone and bottom in star:
        problems.append("star defined at the bottom element")
    # each scan stops at its first violation, as the checks do
    wrong = next((i for i in nonbottom if star[star[i]] != i), None)
    if wrong is not None:
        problems.append("star not involutive at %r" % names[wrong])
    wrong = next(((i, j) for i in nonbottom for j in nonbottom
                  if leq[i, j] and not leq[star[j], star[i]]), None)
    if wrong is not None:
        problems.append("star not order-reversing at (%r, %r)"
                        % (names[wrong[0]], names[wrong[1]]))
    wrong = next((i for i in nonbottom
                  if any(leq[i, k] and leq[star[i], k] for k in range(n))),
                 None)
    if wrong is not None:
        problems.append("no-common-upper-bound fails at (%r, %r)"
                        % (names[wrong], names[star[wrong]]))
    return problems, False


def _star_mutations(star, nonbottom, bottom, strays, rng):
    """The star itself, then random maps, random involutive pairings, stars
    with a fixed point, a star defined at the bottom, a star with a missing
    image, and one star for each stray image: an element outside the
    non-bottom ones the star must map to."""
    yield dict(star)
    for _ in range(12):
        yield {i: rng.choice(nonbottom) for i in nonbottom}
        shuffled = rng.sample(nonbottom, len(nonbottom))
        paired = {}
        for a, b in zip(shuffled[::2], shuffled[1::2]):
            paired[a], paired[b] = b, a
        if len(shuffled) % 2:
            paired[shuffled[-1]] = shuffled[-1]
        yield paired
        fixed = dict(star)
        i = rng.choice(nonbottom)
        fixed[star[i]] = star[i]
        fixed[i] = i
        yield fixed
    yield {**star, bottom: nonbottom[0]}
    missing = dict(star)
    del missing[rng.choice(nonbottom)]
    yield missing
    for outside in strays:
        stray = dict(star)
        stray[rng.choice(nonbottom)] = outside
        yield stray


def _star_cases(completion):
    for name, make in (("spin2", lambda: spin_space(2)),
                       ("spin3", lambda: spin_space(3)),
                       ("spin4", lambda: spin_space(4)),
                       ("simplex3", lambda: simplex_space(3))):
        rs = make()
        space = rs.space
        yield name, space, rs.star, [i for i in range(space.n)
                                     if i != space.bottom], True, \
            [space.bottom]
    emb = completion.embedding
    amb = emb.ambient
    hidden = next(i for i in range(amb.n) if not emb.is_real(i))
    yield "completion", amb, emb.star, [r for r in emb.real
                                           if r != amb.bottom], False, \
        [amb.bottom, hidden]


_STAR_KINDS = ("star undefined", "star of", "star defined at the bottom",
               "star not involutive", "star not order-reversing",
               "no-common-upper-bound fails")


def test_star_problems_match_leq_oracle(two_qubit):
    rng = random.Random(11)
    kinds = set()
    for name, space, star, nonbottom, standalone, strays in \
            _star_cases(two_qubit[1]):
        bottom = space.bottom
        for mutated in _star_mutations(star, nonbottom, bottom, strays, rng):
            want = _oracle_star_problems(space, mutated, nonbottom,
                                         standalone)
            got = _star_problems(space, mutated, nonbottom, standalone)
            assert got == want, (name, mutated)
            kinds.update(k for k in _STAR_KINDS for message in want[0]
                         if message.startswith(k))
    # every axiom is broken by some mutation
    assert kinds == set(_STAR_KINDS)


@pytest.mark.parametrize("stray", [99, -1])
def test_embedding_real_outside_the_ambient_raises_input_error(stray):
    rs = spin_space(2)
    real = list(range(rs.space.n)) + [stray]
    with pytest.raises(InputError, match="real id %d " % stray):
        RealStructureEmbedding(rs.space, real, rs.star)


def test_embedding_star_leaving_the_reals_raises_input_error(two_qubit):
    # a real's star sent to the bottom, or to a hidden element: neither has
    # a star of its own, and the constructor names the stray image
    emb = two_qubit[1].embedding
    amb = emb.ambient
    real = next(r for r in emb.real if r != amb.bottom)
    hidden = next(i for i in range(amb.n) if not emb.is_real(i))
    for outside in (amb.bottom, hidden):
        star = {**emb.star, real: outside}
        with pytest.raises(InputError) as err:
            RealStructureEmbedding(amb, emb.real, star)
        assert "star of %r leaves the non-bottom reals" % amb.names[real] \
            in str(err.value)
