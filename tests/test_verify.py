import pytest

from qlattice.core_order import InputError
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
