"""Compatibility contexts, joint measurements, and operational descriptions.

A set of effects is a context when all of them can be observed through one
joint morphism into a power of the three-outcome domain.  Descriptions
assign outcomes per context, subject to the evaluation laws inside each
context and agreement on overlaps; the coherent descriptions over a real
structure correspond exactly to the elements of its ontic completion, and
the model is contextual precisely when some coherent description fits no
real state.
"""

from .core_order import BOT, NO, YES, InputError, CapExceeded, bits
from . import chu
from .realspaces import real_effects, is_deterministic
from .tensor import global_section

EFFECT_CAP = 4  # most effects, or generators, a joint morphism is over


def _effect_key(l):
    return (-1 if l.yes is None else l.yes, -1 if l.no is None else l.no)


def evaluate_on_completion(completion, l, idx):
    """A real effect of the base at a completed state: real i is element i
    of the completion, so the effect's parts are already element ids."""
    return chu.evaluate(completion.space, l, idx)


# -- joint morphisms --------------------------------------------------------

class JointMorphism(object):
    """A meet-preserving map from a completed space into the states over k
    binary settings, one per effect, whose coordinate marginals realize the
    effects.  A state is a mask over the 2**k outcome tuples, encoded as in
    `tensor.global_section`."""

    def __init__(self, completion, effects, k, pure_masks):
        self.completion = completion
        self.effects = list(effects)
        self.k = k
        space = completion.space
        self._images = []
        for x in range(space.n):
            mask = 0
            for p in space.pures_above(x):
                mask |= pure_masks[p]
            self._images.append(mask)

    def apply(self, idx):
        return self._images[idx]

    def marginal(self, i, idx):
        """Outcome of the i-th effect at a state, read off the joint image."""
        return _coordinate_value(self.k, self._images[idx], i)


# a 1-coordinate marginal over a boolean factor: bit 0 for Y, bit 1 for N
_ROW_MASK = {YES: 1, NO: 2, BOT: 3}


def _coordinate_value(k, mask, i):
    _, (yes, no) = global_section(k, [((i,), 3)])
    seen = bool(mask & yes) | 2 * bool(mask & no)
    if not seen:
        raise InputError("mask with partial coordinate support")
    return (YES, NO, BOT)[seen - 1]


def _cylinder(k, values):
    """Mask of the tuples compatible with a per-coordinate outcome row (BOT
    is free), and the cells that a mask inside it must meet."""
    return global_section(k, [((i,), _ROW_MASK[v])
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
    """A joint observation of the effects on the completed space, or None.

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
    rows = {p: [evaluate_on_completion(completion, l, p) for l in effects]
            for p in pures}
    if is_deterministic(completion.base):
        masks = {p: _cylinder(k, rows[p])[0] for p in pures}
        return JointMorphism(completion, effects, k, masks)
    choices = {p: _masks_with_exact_projection(k, rows[p]) for p in pures}
    order = sorted(pures)
    assignment = {}

    def backtrack(pos):
        if pos == len(order):
            psi = JointMorphism(completion, effects, k, assignment)
            if _verify_joint(psi):
                return psi
            return None
        p = order[pos]
        for mask in choices[p]:
            assignment[p] = mask
            found = backtrack(pos + 1)
            if found is not None:
                return found
        assignment.pop(p, None)
        return None

    return backtrack(0)


def _verify_joint(psi):
    completion = psi.completion
    space = completion.space
    for x in range(space.n):
        for y in range(x, space.n):
            if psi.apply(space.meet(x, y)) != psi.apply(x) | psi.apply(y):
                return False
    for x in range(space.n):
        for i, l in enumerate(psi.effects):
            want = evaluate_on_completion(completion, l, x)
            try:
                got = _coordinate_value(psi.k, psi.apply(x), i)
            except InputError:
                return False
            if got != want:
                return False
    return _pullback_real(psi)


def _pullback_real(psi):
    """Every real target effect must pull back to a real source effect.

    A part mask can be shrunk to the union of the state images it contains
    without changing the pulled-back profile, so only union-generated parts
    need checking; disjoint parts always make a valid target effect."""
    completion = psi.completion
    space = completion.space
    source_profiles = set()
    for l in real_effects(completion.embedding):
        source_profiles.add(tuple(chu.evaluate(space, l, x)
                                  for x in range(space.n)))
    images = sorted(set(psi.apply(x) for x in range(space.n)))
    if len(images) > 12:
        raise CapExceeded("pullback check over %d joint images" % len(images))
    unions = {0}
    for m in images:
        unions |= {u | m for u in unions}
    parts = sorted(unions)
    hits = {u: frozenset(x for x in range(space.n)
                         if psi.apply(x) | u == u) for u in parts}
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

    def __eq__(self, other):
        return isinstance(other, Context) and self.effects == other.effects

    def __hash__(self):
        return hash(self.effects)

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

class Description(object):
    """Per-context outcome assignments over a compatibility cover."""

    def __init__(self, cover, values):
        self.cover = list(cover)
        self.values = [dict(v) for v in values]

    @classmethod
    def from_state(cls, completion, cover, idx):
        values = [{l: evaluate_on_completion(completion, l, idx)
                   for l in c.effects} for c in cover]
        return cls(cover, values)

    def value(self, ci, l):
        return self.values[ci][l]

    def serialize(self, space):
        return [{"context": ci,
                 "values": [[l.serialize(space), self.values[ci][l]]
                            for l in self.cover[ci].sorted_effects()]}
                for ci in range(len(self.cover))]


def coherent_descriptions(completion):
    """All coherent descriptions over the maximal cover, as Description
    objects (enumerated through per-pure state families)."""
    cover = maximal_contexts(completion)
    out = []
    for sigma in _coherent_states(completion):
        out.append((sigma, Description.from_state(completion, cover, sigma)))
    return cover, out


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


def _coherent_states(completion):
    pures, families = enumerate_families(completion)
    states = []
    for fam in families:
        sigma = completion.sharpening(fam.values())
        if sigma is None:
            raise InputError("coherent family with inadmissible join")
        states.append(sigma)
    return states


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
