"""Real structures: state spaces with a star involution on non-bottom
elements, standard constructors, classification, and orthoclosure.

A star involution pairs each non-bottom state with an "opposite" state the
two of which can never be refined into a common one.  The same axioms are
also checked for a real subset embedded in a larger ambient space (the shape
an ontic completion produces).
"""

import json
import numbers
from itertools import combinations

from .core_order import (BOT, CapExceeded, InputError, StateSpace, bits,
                         bool_space)
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
    """A real subset with star, sitting inside an ambient state space; bit r
    of `real_mask` is set when r is real."""

    def __init__(self, ambient, real, star):
        self.ambient = ambient
        real = list(real)
        stray = [r for r in real if not isinstance(r, numbers.Integral)
                 or not 0 <= r < ambient.n]
        if stray:
            raise InputError("real id %r is not an element of the ambient "
                             "space" % (stray[0],))
        self.real = tuple(sorted(int(r) for r in real))
        self.real_mask = sum(1 << r for r in self.real)
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
        return bool(self.real_mask >> i & 1)

    def real_pures(self):
        """The reals with no other real above them, in id order."""
        up = self.ambient.up
        return [r for r in self.real if up[r] & self.real_mask == 1 << r]


def _star_problems(space, star, nonbottom, standalone):
    """The star axioms shared by real spaces and real embeddings: star is
    defined on every non-bottom element, involutive, order-reversing, and
    never has a common upper bound with its argument; its images are in
    nonbottom, and a standalone real space leaves the bottom alone.  Returns
    (violations, stopped): stopped is set when a missing or stray image
    makes further checks meaningless."""
    names = space.names
    problems = []
    inside = set(nonbottom)
    for i in nonbottom:
        if i not in star:
            return ["star undefined at %r" % names[i]], True
        if star[i] not in inside:
            return ["star of %r leaves the non-bottom %s"
                    % (names[i], "elements" if standalone else "reals")], True
    if standalone and space.bottom in star:
        problems.append("star defined at the bottom element")
    for i in nonbottom:
        if star[star[i]] != i:
            problems.append("star not involutive at %r" % names[i])
            break
    # order reversal: j above i needs star[i] above star[j].  The covers
    # decide it on a standalone space, whose order is their transitive
    # closure; an embedding, or a failure, scans the comparable pairs
    up, inside = space.up, sum(1 << i for i in nonbottom)
    for rows in ([space.covers] if standalone else []) + [up]:
        wrong = next(((i, j) for i in nonbottom for j in bits(rows[i] & inside)
                      if not up[star[j]] >> star[i] & 1), None)
        if wrong is None:
            break
        if rows is up:
            problems.append("star not order-reversing at (%r, %r)"
                            % (names[wrong[0]], names[wrong[1]]))
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
    # a meet lies below its arguments, so down-closed reals are meet-closed
    for a in real if any(amb.down[r] & ~emb.real_mask for r in real) else ():
        for b in real:
            if not emb.real_mask >> amb.meet(a, b) & 1:
                problems.append("real subset not meet-closed at (%r, %r)"
                                % (names[a], names[b]))
                return problems
    pures = emb.real_pures()
    for a in real:
        above = [p for p in pures if amb.up[a] >> p & 1]
        if above and amb.meet_all(above) != a:
            problems.append("real subset not generated by its maximal "
                            "elements at %r" % names[a])
            break
    nonbottom = [a for a in real if a != amb.bottom]
    star_problems, stopped = _star_problems(amb, emb.star, nonbottom, False)
    problems.extend(star_problems)
    if stopped:
        return problems
    # A real effect's value at s depends only on the reals below s, and the
    # one-sided effects Effect(r, None) read that set back, so the real
    # effects separate two states exactly when their real down-sets differ.
    first_with = {}
    for s, down in enumerate(amb.down):
        seen = first_with.setdefault(down & emb.real_mask, s)
        if seen != s:
            problems.append("real effects cannot separate %r from %r"
                            % (names[seen], names[s]))
            break
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
            if y != bottom and space.up[star[x]] >> y & 1:
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


# each space kind, in any case, by the name of its constructor
_KINDS = {"bool": "bool", "z": "simplex", "simplex": "simplex",
          "zprime": "spin", "spin": "spin", "custom": "custom"}


def make_space(kind, param=None):
    """A real space by kind: bool; z or simplex, or zprime or spin, of size
    param; custom from the JSON data param.  Kinds are case-insensitive."""
    maker = _KINDS.get(kind.lower())
    if maker is None:
        raise InputError("unknown space kind %r" % (kind,))
    if maker == "bool":
        return bool_real_space()
    if param is None:
        raise InputError("%s constructor needs %s" % (
            maker, "JSON data" if maker == "custom" else "a size"))
    if maker == "custom":
        return RealSpace.from_json(param)
    return (simplex_space if maker == "simplex" else spin_space)(int(param))


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
    up = space.up
    for sigma in pures:
        for lam in pures:
            if not up[rs.star_of(lam)] >> sigma & 1:
                continue
            either = up[rs.star_of(sigma)] | up[rs.star_of(lam)]
            if all(either >> k & 1 for k in pures):
                return False
    return True


def is_linear(rs):
    """Every covered pure pair admits a third state covering its meet; the
    third state may be hidden, so the search runs in the ontic completion."""
    from .ontic import OnticCompletion
    completion = OnticCompletion(rs)
    space, hat = rs.space, completion.space
    pures = space.pures()
    for i, s1 in enumerate(pures):
        for s2 in pures[i + 1:]:
            m = space.meet(s1, s2)
            if not (space.covered_by(m, s1) and space.covered_by(m, s2)):
                continue
            # a cover of m in the completion above neither pure
            s1_h, s2_h = completion.embed(s1), completion.embed(s2)
            if not hat.covers[completion.embed(m)] \
                    & ~(hat.up[s1_h] | hat.up[s2_h]):
                return False
    return True


def classify(rs):
    return {
        "deterministic": is_deterministic(rs),
        "completely_indeterministic": is_completely_indeterministic(rs),
        "linear": is_linear(rs),
    }


# -- orthogonality and orthoclosure ----------------------------------------

def ortho_matrix(emb):
    """The orthogonality relation as int row masks over the ambient
    elements: bit y of row x is set, x orth y, when some non-bottom real w
    lies below x with its star below y.  Each such w ORs up[w*] into the row
    of every x in up[w]."""
    amb = emb.ambient
    rows = [0] * amb.n
    for w in emb.real:
        if w == amb.bottom:
            continue
        far = amb.up[emb.star_of(w)]
        for x in bits(amb.up[w]):
            rows[x] |= far
    return rows


def ortho_complement(emb, subset, orth=None):
    """The ambient elements orthogonal to every member of the subset, read
    off the rows of ortho_matrix."""
    rows = ortho_matrix(emb) if orth is None else orth
    want = sum(1 << int(s) for s in set(subset))
    return frozenset(x for x, row in enumerate(rows) if row & want == want)


def orthoclosed_sets(emb, orth=None):
    """All closed sets of the double-orthogonal closure, the orthogonals of
    every subset, deterministically ordered; at most 16 elements."""
    n = emb.ambient.n
    if n > 16:
        raise CapExceeded("orthoclosed-set enumeration over %d elements" % n)
    orth = ortho_matrix(emb) if orth is None else orth
    closed = {ortho_complement(emb, bits(mask), orth)
              for mask in range(1 << n)}
    return sorted(closed, key=lambda s: (len(s), sorted(s)))
