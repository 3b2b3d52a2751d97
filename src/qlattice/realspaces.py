"""Real structures: state spaces with a star involution on non-bottom
elements, standard constructors, classification, and orthoclosure.

A star involution pairs each non-bottom state with an "opposite" state the
two of which can never be refined into a common one.  The same axioms are
also checked for a real subset embedded in a larger ambient space (the shape
an ontic completion produces).
"""

import json
from itertools import combinations

import numpy as np

from .core_order import BOT, InputError, StateSpace, bool_space
from . import chu


class RealSpace(object):
    """A state space with a star involution on its non-bottom elements."""

    def __init__(self, space, star):
        self.space = space
        self.star = {int(k): int(v) for k, v in star.items()}
        problems = validate_real(self)
        if problems:
            raise InputError("invalid real structure: %s" % problems[0])

    def star_of(self, i):
        try:
            return self.star[i]
        except KeyError:
            raise InputError("star undefined at %r" % self.space.names[i])

    def pures(self):
        return self.space.pures()

    def to_json_dict(self):
        d = self.space.to_json_dict()
        names = self.space.names
        d["star"] = sorted([names[x], names[y]] for x, y in self.star.items())
        return d

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json(cls, text):
        data = json.loads(text) if isinstance(text, str) else text
        space = StateSpace.from_json(data)
        if "star" not in data:
            raise InputError("real space JSON needs a 'star' key")
        star = {space.index(a): space.index(b) for a, b in data["star"]}
        return cls(space, star)

    def __repr__(self):
        return "RealSpace(%d elements)" % self.space.n


class RealStructureEmbedding(object):
    """A real subset with star, sitting inside an ambient state space."""

    def __init__(self, ambient, real, star):
        self.ambient = ambient
        self.real = tuple(sorted(int(r) for r in real))
        self.real_mask = np.zeros(ambient.n, dtype=bool)
        self.real_mask[list(self.real)] = True
        self.star = {int(k): int(v) for k, v in star.items()}
        problems = validate_embedding(self)
        if problems:
            raise InputError("invalid real embedding: %s" % problems[0])

    def star_of(self, i):
        try:
            return self.star[i]
        except KeyError:
            raise InputError("star undefined at %r" % self.ambient.names[i])

    def is_real(self, i):
        return bool(self.real_mask[i])

    def real_pures(self):
        sub = self.ambient.leq[np.ix_(self.real, self.real)]
        strict = sub & ~np.eye(len(self.real), dtype=bool)
        return [self.real[k] for k in np.flatnonzero(strict.sum(axis=1) == 0)]


def _star_problems(space, star, nonbottom, standalone):
    """The star axioms shared by real spaces and real embeddings: star is
    defined on every non-bottom element, involutive, order-reversing, and
    never has a common upper bound with its argument.  A standalone real
    space also needs the star to map the non-bottom elements to themselves
    and to leave the bottom alone.  Returns (violations, stopped): stopped
    is set when a missing or stray image makes further checks meaningless."""
    names = space.names
    problems = []
    for i in nonbottom:
        if i not in star:
            return ["star undefined at %r" % names[i]], True
        if standalone and (star[i] == space.bottom or star[i] < 0
                           or star[i] >= space.n):
            return ["star of %r leaves the non-bottom elements"
                    % names[i]], True
    if standalone and space.bottom in star:
        problems.append("star defined at the bottom element")
    for i in nonbottom:
        if star[star[i]] != i:
            problems.append("star not involutive at %r" % names[i])
            break
    for i in nonbottom:
        for j in nonbottom:
            if space.leq[i, j] and not space.leq[star[j], star[i]]:
                problems.append("star not order-reversing at (%r, %r)"
                                % (names[i], names[j]))
                break
        else:
            continue
        break
    for i in nonbottom:
        if space.bounded((i, star[i])):
            problems.append("no-common-upper-bound fails at (%r, %r)"
                            % (names[i], names[star[i]]))
            break
    return problems, False


def validate_real(rs):
    """All star-structure axioms for a standalone real space; returns a list
    of human-readable violations, empty when valid."""
    space = rs.space
    nonbottom = [i for i in range(space.n) if i != space.bottom]
    problems, stopped = _star_problems(space, rs.star, nonbottom, True)
    if not stopped and not space.generated_by_pures():
        problems.append("space not generated by its maximal elements")
    return problems


def validate_embedding(emb):
    amb = emb.ambient
    names = amb.names
    problems = []
    real = list(emb.real)
    if amb.bottom not in real:
        problems.append("real subset misses the bottom element")
    for a in real:
        for b in real:
            if amb.meet(a, b) not in emb.real:
                problems.append("real subset not meet-closed at (%r, %r)"
                                % (names[a], names[b]))
                return problems
    pures = emb.real_pures()
    for a in real:
        above = [p for p in pures if amb.leq[a, p]]
        if above and amb.meet_all(above) != a:
            problems.append("real subset not generated by its maximal "
                            "elements at %r" % names[a])
            break
    nonbottom = [a for a in real if a != amb.bottom]
    star_problems, stopped = _star_problems(amb, emb.star, nonbottom, False)
    problems.extend(star_problems)
    if stopped:
        return problems
    effects = real_effects_of(amb, real, emb.star)
    profiles = {}
    for s in range(amb.n):
        p = tuple(chu.evaluate(amb, l, s) for l in effects)
        if p in profiles:
            problems.append("real effects cannot separate %r from %r"
                            % (names[profiles[p]], names[s]))
            break
        profiles[p] = s
    return problems


def real_effects_of(space, real, star):
    """All effects whose parts are real: the bottom effect, every one-sided
    effect over a real element (bottom included), and the two-sided ones
    l(x, y) with y above star(x)."""
    real = sorted(real)
    out = [chu.BOTTOM_EFFECT]
    out.extend(chu.Effect(r, None) for r in real)
    out.extend(chu.Effect(None, r) for r in real)
    bottom = space.bottom
    for x in real:
        if x == bottom:
            continue
        for y in real:
            if y != bottom and space.leq[star[x], y]:
                out.append(chu.Effect(x, y))
    return out


def real_effects(rs):
    if isinstance(rs, RealStructureEmbedding):
        return real_effects_of(rs.ambient, rs.real, rs.star)
    return real_effects_of(rs.space, range(rs.space.n), rs.star)


# -- standard constructors -------------------------------------------------

def bool_real_space():
    """The three-outcome domain with Y and N starred onto each other."""
    return RealSpace(bool_space(), {0: 1, 1: 0})


def simplex_space(n):
    """The free meet-semilattice on n points; star is complementation."""
    if not 2 <= n <= 9:
        raise InputError("simplex size must be between 2 and 9")
    subsets = []
    for size in range(1, n + 1):
        subsets.extend(combinations(range(1, n + 1), size))
    def name(s):
        return "BOT" if len(s) == n else "u" + "".join(str(d) for d in s)
    names = [name(s) for s in subsets]
    pairs = []
    for s in subsets:
        for t in subsets:
            if set(s) <= set(t):
                pairs.append((name(t), name(s)))
    space = StateSpace.from_relation(names, pairs)
    full = set(range(1, n + 1))
    star = {}
    for s in subsets:
        if len(s) < n:
            comp = tuple(sorted(full - set(s)))
            star[space.index(name(s))] = space.index(name(comp))
    return RealSpace(space, star)


def spin_space(n):
    """Bottom plus n star-paired, pairwise-incomparable pure axes."""
    if n < 2:
        raise InputError("spin space needs at least 2 axes")
    if n > 13:
        raise InputError("spin space axis labels run out past 13")
    letters = "abcdefghijklm"[:n]
    names = []
    for c in letters:
        names.extend([c, c + "*"])
    names.append("BOT")
    pairs = [("BOT", x) for x in names[:-1]]
    space = StateSpace.from_relation(names, pairs)
    star = {}
    for c in letters:
        i, j = space.index(c), space.index(c + "*")
        star[i], star[j] = j, i
    return RealSpace(space, star)


def make_space(kind, param=None):
    if kind == "bool":
        return bool_real_space()
    if kind == "Z":
        if param is None:
            raise InputError("simplex constructor needs a size")
        return simplex_space(int(param))
    if kind == "Zprime":
        if param is None:
            raise InputError("spin constructor needs a size")
        return spin_space(int(param))
    if kind == "custom":
        if param is None:
            raise InputError("custom constructor needs JSON data")
        return RealSpace.from_json(param)
    raise InputError("unknown space kind %r" % (kind,))


# -- classification --------------------------------------------------------

def is_deterministic(rs):
    """Every pure answers a definite outcome to every sharp question."""
    space = rs.space
    for p in space.pures():
        l = chu.make_effect(space, p, rs.star_of(p))
        for q in space.pures():
            if chu.evaluate(space, l, q) == BOT:
                return False
    return True


def is_completely_indeterministic(rs):
    space = rs.space
    pures = space.pures()
    for sigma in pures:
        for lam in pures:
            if not space.leq[rs.star_of(lam), sigma]:
                continue
            if not any(not space.leq[rs.star_of(sigma), k]
                       and not space.leq[rs.star_of(lam), k]
                       for k in pures):
                return False
    return True


def is_linear(rs, completion=None):
    """Every covered pure pair admits a third state covering its meet; the
    third state may be hidden, so the search runs in the ontic completion."""
    from .ontic import OnticCompletion
    completion = OnticCompletion(rs) if completion is None else completion
    space = rs.space
    pures = space.pures()
    for i, s1 in enumerate(pures):
        for s2 in pures[i + 1:]:
            m = space.meet(s1, s2)
            if not (space.covered_by(m, s1) and space.covered_by(m, s2)):
                continue
            hat = completion.space
            m_h = completion.embed(m)
            s1_h, s2_h = completion.embed(s1), completion.embed(s2)
            if not any(not hat.leq[s1_h, s3] and not hat.leq[s2_h, s3]
                       for s3 in hat.upper_covers(m_h)):
                return False
    return True


def classify(rs, completion=None):
    return {
        "deterministic": is_deterministic(rs),
        "completely_indeterministic": is_completely_indeterministic(rs),
        "linear": is_linear(rs, completion=completion),
    }


# -- orthogonality and orthoclosure ----------------------------------------

def ortho_matrix(emb):
    """x orth y iff some non-bottom real lies below x with its star below y."""
    amb = emb.ambient
    orth = np.zeros((amb.n, amb.n), dtype=bool)
    for w in emb.real:
        if w == amb.bottom:
            continue
        orth |= amb.leq[w][:, None] & amb.leq[emb.star_of(w)][None, :]
    return orth


def ortho_complement(emb, subset, orth=None):
    orth = ortho_matrix(emb) if orth is None else orth
    subset = list(subset)
    mask = np.ones(emb.ambient.n, dtype=bool)
    for s in subset:
        mask &= orth[:, s]
    return frozenset(int(i) for i in np.flatnonzero(mask))


def orthoclosure(emb, subset, orth=None):
    """The orthogonal and double orthogonal of a subset of the ambient
    space, as frozensets of element ids."""
    orth = ortho_matrix(emb) if orth is None else orth
    one = ortho_complement(emb, subset, orth)
    two = ortho_complement(emb, one, orth)
    return one, two


def orthoclosed_sets(emb, orth=None):
    """All closed sets of the double-orthogonal closure, deterministically
    ordered."""
    orth = ortho_matrix(emb) if orth is None else orth
    seen = set()
    out = []
    for subset in _all_subsets_capped(emb.ambient.n):
        h = ortho_complement(emb, subset, orth)
        if h not in seen:
            seen.add(h)
            out.append(h)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def _all_subsets_capped(n, cap=16):
    if n > cap:
        from .core_order import CapExceeded
        raise CapExceeded("orthoclosed-set enumeration over %d elements" % n)
    for mask in range(1 << n):
        yield [i for i in range(n) if mask >> i & 1]
