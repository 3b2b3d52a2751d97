"""Compatibility contexts, joint measurements, and the description model.

A set of effects is a context when all of them can be observed through one
joint morphism into a power of the three-outcome domain: a meet-preserving
map of the completed space into the states over k binary settings, one per
effect, held as the list of its element images.  Descriptions assign
outcomes per context, subject to the evaluation laws inside each context
and agreement on overlaps; they are enumerated as per-pure families of real
states, and the coherent ones correspond exactly to the elements of the
ontic completion.  The model is contextual precisely when some coherent
description fits no real state.
"""

from .core_order import (YES, NO, BOT, OUTCOME_MASK, InputError, CapExceeded,
                         bits)
from . import chu
from .realspaces import real_effects, is_deterministic
from .tensor import global_section

EFFECT_CAP = 4  # most effects, or generators, a joint morphism is over


def _effect_key(l):
    return (-1 if l.yes is None else l.yes, -1 if l.no is None else l.no)


# -- joint morphisms --------------------------------------------------------

def _images(space, pure_masks):
    """Each element's image under a joint morphism: a state is a mask over
    the 2**k outcome tuples, encoded as in `tensor.global_section`, and an
    element goes to the union of the images of the pures above it."""
    images = []
    for x in range(space.n):
        mask = 0
        for p in space.pures_above(x):
            mask |= pure_masks[p]
        images.append(mask)
    return images


def _coordinate_mask(k, mask, i):
    """The possibility mask of setting i at a state: bit 0 when one of its
    tuples reads Y there, bit 1 when one reads N."""
    _, (yes, no) = global_section(k, [((i,), OUTCOME_MASK[BOT])])
    return bool(mask & yes) | 2 * bool(mask & no)


def _cylinder(k, values):
    """Mask of the tuples compatible with a per-coordinate outcome row (BOT
    is free), and the cells that a mask inside it must meet."""
    return global_section(k, [((i,), OUTCOME_MASK[v])
                              for i, v in enumerate(values)])


def _masks_with_exact_projection(k, values):
    """All masks whose coordinate projections reproduce the outcome row:
    the nonempty subsets of the cylinder meeting every cell, in ascending
    order of their picks over the cylinder's bits."""
    cyl, need = _cylinder(k, values)
    cyl = bits(cyl)
    if len(cyl) > 12:
        raise CapExceeded("joint image search over %d free tuples" % len(cyl))
    masks = (sum(1 << t for pos, t in enumerate(cyl) if pick >> pos & 1)
             for pick in range(1, 1 << len(cyl)))
    return [mask for mask in masks if all(mask & cell for cell in need)]


def find_joint_morphism(completion, effects):
    """A joint observation of the effects on the completed space, as its
    list of element images, or None.

    Deterministic bases always admit the constructive cylinder assignment;
    otherwise the per-pure images are searched by backtracking and the
    candidate is kept only if it preserves meets, reproduces every marginal,
    and pulls real target effects back to real source effects.
    """
    effects = list(effects)
    if not effects:
        raise InputError("joint morphism of an empty effect list")
    space = completion.space
    if not space.generated_by_pures():
        raise InputError("space not generated by its maximal elements")
    k = len(effects)
    if k > EFFECT_CAP:
        raise CapExceeded("joint morphism over %d effects" % k)
    pures = list(space.maximals)
    # real i is element i of the completion: the parts are element ids here
    rows = {p: [chu.evaluate(space, l, p) for l in effects] for p in pures}
    if is_deterministic(completion.base):
        return _images(space, {p: _cylinder(k, rows[p])[0] for p in pures})
    choices = {p: _masks_with_exact_projection(k, rows[p]) for p in pures}
    order = sorted(pures)
    assignment = {}

    def backtrack(pos):
        if pos == len(order):
            images = _images(space, assignment)
            ok = _verify_joint(completion, effects, images)
            return images if ok else None
        p = order[pos]
        for mask in choices[p]:
            assignment[p] = mask
            found = backtrack(pos + 1)
            if found is not None:
                return found
        assignment.pop(p, None)
        return None

    return backtrack(0)


def _verify_joint(completion, effects, images):
    space = completion.space
    k = len(effects)
    for x in range(space.n):
        for y in range(x, space.n):
            if images[space.meet(x, y)] != images[x] | images[y]:
                return False
    for x in range(space.n):
        for i, l in enumerate(effects):
            want = OUTCOME_MASK[chu.evaluate(space, l, x)]
            if _coordinate_mask(k, images[x], i) != want:
                return False
    return _pullback_real(completion, images)


def _pullback_real(completion, images):
    """Every real target effect must pull back to a real source effect.

    A part mask can be shrunk to the union of the state images it contains
    without changing the pulled-back profile, so only union-generated parts
    need checking; disjoint parts always make a valid target effect."""
    space = completion.space
    source_profiles = set()
    for l in real_effects(completion.embedding):
        source_profiles.add(tuple(chu.evaluate(space, l, x)
                                  for x in range(space.n)))
    distinct = sorted(set(images))
    if len(distinct) > 12:
        raise CapExceeded("pullback check over %d joint images"
                          % len(distinct))
    unions = {0}
    for m in distinct:
        unions |= {u | m for u in unions}
    parts = sorted(unions)
    hits = {u: frozenset(x for x in range(space.n) if images[x] | u == u)
            for u in parts}
    for y in parts:
        for n_ in parts:
            if y & n_:
                continue
            profile = tuple(YES if x in hits[y] else
                            NO if x in hits[n_] else BOT
                            for x in range(space.n))
            if profile not in source_profiles:
                return False
    return True


# -- contexts ----------------------------------------------------------------

class Context(object):
    def __init__(self, effects, kind):
        self.effects = frozenset(effects)
        self.kind = kind

    def sorted_effects(self):
        return sorted(self.effects, key=_effect_key)

    def serialize(self, space):
        return {"kind": self.kind,
                "effects": [l.serialize(space) for l in self.sorted_effects()]}


def _effect_closure(space, effects, sups=False):
    """Close a set of effects under bar, pairwise meet, and the constants;
    optionally also under least common refinements (sups), whose outcomes
    are functions of the outcomes of their arguments."""
    out = set(effects)
    out.add(chu.BOTTOM_EFFECT)
    out.add(chu.yes_effect(space))
    out.add(chu.effect_bar(chu.yes_effect(space)))
    while True:
        extra = set()
        for l in out:
            b = chu.effect_bar(l)
            if b not in out:
                extra.add(b)
        for l1 in out:
            for l2 in out:
                m = chu.effect_meet(space, l1, l2)
                if m not in out and m not in extra:
                    extra.add(m)
                if sups:
                    s = chu.effect_sup(space, l1, l2)
                    if s is not None and s not in out and s not in extra:
                        extra.add(s)
        if not extra:
            return out
        out |= extra


def reduce_generators(space, effects):
    """A small generating subset: constants dropped, bar images and effects
    derivable by meets or refinements skipped; two-sided effects go first
    since they generate their one-sided components."""
    constants = {chu.BOTTOM_EFFECT, chu.yes_effect(space),
                 chu.effect_bar(chu.yes_effect(space))}
    order = sorted(set(effects),
                   key=lambda l: (l.yes is None or l.no is None,
                                  _effect_key(l)))
    basis = []
    derivable = set(constants)
    for l in order:
        if l in derivable:
            continue
        basis.append(l)
        derivable = _effect_closure(space, basis, sups=True)
    return basis


def is_compatible(completion, effects):
    if is_deterministic(completion.base):
        return True
    base = completion.base.space
    gens = reduce_generators(base, effects)
    if len(gens) <= 1:
        return True
    if len(gens) > EFFECT_CAP:
        raise CapExceeded("compatibility check over %d generators" % len(gens))
    return find_joint_morphism(completion, gens) is not None


def type1_context(completion, omega):
    """All one-sided effects whose part refines the given pure, plus the
    bottom effect."""
    base = completion.base.space
    below = bits(base.down[omega])
    effects = {chu.BOTTOM_EFFECT}
    effects.update(chu.Effect(s, None) for s in below)
    effects.update(chu.Effect(None, s) for s in below)
    return Context(effects, kind="type1")


def maximal_contexts(completion):
    """The compatibility cover: for deterministic bases the single context
    of all real effects; otherwise the canonical per-pure one-sided family
    for each pure of the real part, plus the contexts grown greedily from
    each two-sided effect under the joint-measurement oracle (their
    maximality is certified by the failed single-effect extensions)."""
    base = completion.base
    effects = sorted(real_effects(base), key=_effect_key)
    if is_deterministic(base):
        return [Context(effects, kind="type2")]
    out = []
    for w in sorted(base.space.pures()):
        c = type1_context(completion, w)
        if not is_compatible(completion, c.effects):
            raise InputError("one-sided family of %r fails the oracle"
                             % base.space.names[w])
        out.append(c)
    found = {}
    for seed in effects:
        if seed.yes is None or seed.no is None:
            continue
        current = _effect_closure(base.space, [seed])
        for l in effects:
            if l in current:
                continue
            trial = _effect_closure(base.space, list(current) + [l])
            if is_compatible(completion, trial):
                current = trial
        key = frozenset(current)
        if key not in found:
            found[key] = Context(key, kind="type2")
    out.extend(sorted(found.values(),
                      key=lambda c: sorted(_effect_key(l)
                                           for l in c.effects)))
    return out


# -- descriptions ------------------------------------------------------------

def _family_coherent(completion, family):
    """Coherence constraints on a per-pure family of real states."""
    base = completion.base
    space = base.space
    pures = space.pures()
    up = space.up
    for s in range(space.n):
        vals = {up[s] >> family[p] & 1 for p in pures if up[s] >> p & 1}
        if len(vals) > 1:
            return False
    for l in real_effects(base):
        if l.yes is None or l.no is None:
            continue
        yes_seen = any(up[l.yes] >> family[p] & 1
                       for p in pures if up[l.yes] >> p & 1)
        no_seen = any(up[l.no] >> family[p] & 1
                      for p in pures if up[l.no] >> p & 1)
        if yes_seen and no_seen:
            return False
    return True


def _consistency_pairs(completion, family):
    space = completion.base.space
    pures = space.pures()
    for w in pures:
        for q in pures:
            if not space.up[space.meet(w, family[q])] >> family[w] & 1:
                return False
    return True


def enumerate_families(completion):
    """All per-pure families (one real state below each pure) passing the
    coherence filters, in id order."""
    space = completion.base.space
    pures = sorted(space.pures())
    choices = [bits(space.down[p]) for p in pures]
    out = []
    total = 1
    for c in choices:
        total *= len(c)
    if total > 10 ** 6:
        raise CapExceeded("description family space of size %d" % total)
    stack = [(0, {})]
    while stack:
        pos, fam = stack.pop()
        if pos == len(pures):
            if _family_coherent(completion, fam) and \
                    _consistency_pairs(completion, fam):
                out.append(dict(fam))
            continue
        for v in reversed(choices[pos]):
            nxt = dict(fam)
            nxt[pures[pos]] = v
            stack.append((pos + 1, nxt))
    return pures, out


def verify_model_iso(completion):
    """The coherent-description model against the completed space: counts,
    bijectivity, meet preservation, and the contextuality verdict."""
    pures, families = enumerate_families(completion)
    states = []
    for fam in families:
        sigma = completion.sharpening(fam.values())
        states.append(sigma)
    ok_bijection = (None not in states
                    and len(set(states)) == len(states)
                    and len(states) == len(completion.elements))
    meet_hom = True
    space = completion.space
    for i, f1 in enumerate(families):
        for j, f2 in enumerate(families):
            met = {p: completion.base.space.meet(f1[p], f2[p]) for p in pures}
            target = completion.sharpening(met.values())
            if target != space.meet(states[i], states[j]):
                meet_hom = False
    contextual = any(completion.is_hidden(s) for s in states)
    return {"descriptions": len(families),
            "states": len(completion.elements),
            "bijective": ok_bijection,
            "meet_homomorphism": meet_hom,
            "contextual": contextual}
