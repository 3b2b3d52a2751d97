import functools
import operator
from itertools import product

import pytest

from qlattice import chu
from qlattice.core_order import OUTCOME_MASK, BOOL_VALUES, CapExceeded
from qlattice.realspaces import real_effects, simplex_space, spin_space
from qlattice.ontic import build_completion
from qlattice.contextuality import (EFFECT_CAP, find_joint_morphism,
                                    is_compatible, maximal_contexts,
                                    reduce_generators, verify_model_iso,
                                    _coordinate_mask, _cylinder,
                                    _masks_with_exact_projection)

from section_reference import marginal


def test_model_iso_on_completed_spin_pair(z2_completion):
    report = verify_model_iso(z2_completion)
    assert report["descriptions"] == 9
    assert report["states"] == 9
    assert report["bijective"]
    assert report["meet_homomorphism"]
    assert report["contextual"]


def test_simplex_model_is_noncontextual():
    comp = build_completion(simplex_space(3))
    report = verify_model_iso(comp)
    assert report["bijective"]
    assert not report["contextual"]


def test_maximal_context_count(z2_completion):
    assert len(maximal_contexts(z2_completion)) == 6


def test_contexts_cover_every_sharp_effect(z2, z2_completion):
    cover = maximal_contexts(z2_completion)
    sharp = set()
    for p in z2.space.pures():
        l = chu.make_effect(z2.space, p, z2.star_of(p))
        sharp.add((l.yes, l.no))
    covered = set()
    for ctx in cover:
        for l in ctx.effects:
            covered.add((l.yes, l.no))
    assert sharp <= covered


def test_no_joint_morphism_for_incompatible_pair(z2, z2_completion):
    a, b = z2.space.index("a"), z2.space.index("b")
    la = chu.make_effect(z2.space, a, z2.star_of(a))
    lb = chu.make_effect(z2.space, b, z2.star_of(b))
    assert find_joint_morphism(z2_completion, [la, lb]) is None


def test_joint_morphism_exists_on_a_simplex():
    z3 = simplex_space(3)
    comp = build_completion(z3)
    pures = z3.space.pures()
    effects = [chu.make_effect(z3.space, p, z3.star_of(p)) for p in pures[:2]]
    assert find_joint_morphism(comp, effects) is not None


def test_joint_morphism_for_one_sharp_effect(z2, z2_completion):
    comp = z2_completion
    space = comp.space
    a = z2.space.index("a")
    la = chu.make_effect(z2.space, a, z2.star_of(a))
    images = find_joint_morphism(comp, [la])
    assert images is not None and len(images) == space.n
    # brute-force oracle: meets go to unions of the image masks, an element
    # goes to the union of the images of the pures above it, and the single
    # coordinate reads the effect's possibilities on every completed state
    for x in range(space.n):
        for y in range(space.n):
            assert images[space.meet(x, y)] == images[x] | images[y]
        assert images[x] == functools.reduce(
            operator.or_, (images[p] for p in space.pures_above(x)))
        want = OUTCOME_MASK[chu.evaluate(space, la, x)]
        assert marginal(1, images[x], (0,)) == want


def test_joint_morphism_caps_the_effect_count(z2_completion):
    # five effects would need 32 outcome tuples; the search stops at four
    # effects (16 tuples), before any search
    effects = real_effects(z2_completion.base)[:5]
    assert len(set(effects)) == 5
    with pytest.raises(CapExceeded):
        find_joint_morphism(z2_completion, effects)


def test_compatibility_check_stops_at_the_joint_morphism_bound():
    # the sharp effects l(p, p*) of spin 5 reduce to five generators, one
    # more than a joint morphism is searched over
    z5 = spin_space(5)
    comp = build_completion(z5)
    effects = [chu.make_effect(z5.space, p, z5.star_of(p))
               for p in z5.space.pures()]
    assert len(reduce_generators(z5.space, effects)) == EFFECT_CAP + 1 == 5
    with pytest.raises(CapExceeded, match="compatibility check over 5"):
        is_compatible(comp, effects)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_coordinate_helpers_match_projection_brute_force(k):
    # every outcome row in {Y, N, BOT}^k and every mask, against the
    # plain-loop marginal onto each single coordinate (bit 0 Y, bit 1 N)
    full = (1 << (1 << k)) - 1
    proj = [[marginal(k, mask, (i,)) for i in range(k)]
            for mask in range(full + 1)]
    for mask in range(full + 1):
        for i in range(k):
            assert _coordinate_mask(k, mask, i) == proj[mask][i]
    for row in product(BOOL_VALUES, repeat=k):
        want = [OUTCOME_MASK[v] for v in row]
        cylinder = sum(1 << t for t in range(1 << k)
                       if all(proj[1 << t][i] & want[i] for i in range(k)))
        assert _cylinder(k, row)[0] == cylinder
        # the search's candidate order is ascending picks over the
        # cylinder's bits, which is ascending mask order
        exact = [mask for mask in range(1, full + 1) if proj[mask] == want]
        assert _masks_with_exact_projection(k, row) == exact
