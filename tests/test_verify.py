import random
from itertools import combinations
from types import SimpleNamespace

import pytest

from qlattice.core_order import YES, NO, InputError
from qlattice import verify
from qlattice.tensor import TensorSpace


def test_suite_slugs_are_unique():
    slugs = [slug for slug, _, _ in verify.CHECKS]
    assert len(slugs) == len(set(slugs)) == 13


def test_every_suite_names_known_checks():
    known = {slug for slug, _, _ in verify.CHECKS}
    for names in verify.SUITES.values():
        assert set(names) <= known
    assert set(verify.SUITES["all"]) == known


def test_unknown_check_is_rejected():
    with pytest.raises(InputError):
        verify.run_suite(["nosuch"])


def test_bool_tables_read_the_real_space(monkeypatch):
    # a stub whose meet of Y and N is Y fails the one entry it breaks
    real = verify.bool_real_space()

    class Space:
        def meet(self, x, y):
            return YES if (x, y) == (YES, NO) else real.space.meet(x, y)

    monkeypatch.setattr(verify, "bool_real_space", lambda: SimpleNamespace(
        space=Space(), star=real.star))
    report = verify.check_bool_tables()
    assert not report["pass"]
    assert report["failures"] == [("meet", YES, NO)]


def test_run_suite_report_shape():
    report = verify.run_suite(["bool-tables", "preclosure-counterexample"])
    assert report["version"] == verify.SCHEMA_VERSION
    assert report["pass"]
    for check in report["checks"].values():
        assert "pass" in check and "anchor" in check


def test_run_suite_drops_shared_inputs():
    report = verify.run_suite(["covering-preservation", "non-completeness"])
    assert report["pass"]
    assert verify._shared == {}


def test_simplex_tensor_check_reads_the_expansion_formula(monkeypatch):
    # one pure pair too many in every expansion must fail the check
    assert verify.check_simplex_tensor()["pass"]
    expand = TensorSpace._expand
    monkeypatch.setattr(TensorSpace, "_expand",
                        lambda self, gens: expand(self, gens) | 1)
    assert not verify.check_simplex_tensor()["pass"]


def _antitone_full_scan(subsets, perps):
    """The antitone failures of every ordered pair of subsets, in scan
    order, as index pairs."""
    return [(i, j) for i, a in enumerate(subsets)
            for j, b in enumerate(subsets)
            if set(a) <= set(b) and not perps[j] <= perps[i]]


def test_antitone_failures_match_the_full_scan():
    n = 5
    subsets = [s for r in range(n + 1) for s in combinations(range(n), r)]
    rng = random.Random(4)
    perps = [frozenset(x for x in range(n) if rng.random() < 0.5)
             for _ in subsets]
    want = _antitone_full_scan(subsets, perps)
    assert len(want) > 100
    assert verify._antitone_failures(subsets, perps, n) == want


def test_orthoclosure_check_finds_a_planted_antitone_failure(monkeypatch):
    # complements of the two-element subsets that are not closed sets gain
    # element 0: the closed-set laws still hold, the antitone law does not
    true = verify.ortho_complement
    closed = set()

    def planted(emb, subset, orth=None):
        out = true(emb, subset, orth)
        if len(set(subset)) == 2 and frozenset(subset) not in closed:
            out = out | {0}
        return out

    emb = verify.build_completion(verify.spin_space(2)).embedding
    orth = verify.ortho_matrix(emb)
    closed.update(verify.orthoclosed_sets(emb, orth))
    n = emb.ambient.n
    subsets = [s for r in range(n + 1) for s in combinations(range(n), r)]
    perps = [planted(emb, a, orth) for a in subsets]
    want = _antitone_full_scan(subsets, perps)
    assert len(want) > 5
    assert verify._antitone_failures(subsets, perps, n) == want
    monkeypatch.setattr(verify, "ortho_complement", planted)
    report = verify.check_orthoclosure()
    assert not report["pass"]
    assert report["failures"] == [
        ("antitone", list(subsets[i]), list(subsets[j]))
        for i, j in want[:5]]
    assert report["subset_pairs"] == 512 ** 2
