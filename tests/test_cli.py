import json
import os
import subprocess
import sys

import pytest

import qlattice
from qlattice.cli import VERBS
from qlattice.geometry import export_incidence

# the CLI runs the same qlattice package that the tests import
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(qlattice.__file__))
ENV = dict(os.environ, PYTHONIOENCODING="utf-8",
           PYTHONPATH=os.pathsep.join(
               p for p in (_PACKAGE_ROOT, os.environ.get("PYTHONPATH"))
               if p))


def run_cli(*args, env=None, timeout=None):
    return subprocess.run([sys.executable, "-m", "qlattice.cli"] + list(args),
                          capture_output=True, text=True,
                          env=env or ENV, timeout=timeout)


def test_build_spin_space():
    out = run_cli("build", "--kind", "zprime", "--n", "2")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["elements"] == 5


def test_build_accepts_aliases():
    spin = run_cli("build", "--kind", "spin", "--n", "2")
    zprime = run_cli("build", "--kind", "zprime", "--n", "2")
    assert spin.returncode == zprime.returncode == 0
    assert spin.stdout == zprime.stdout


def test_unknown_kind_exits_2():
    out = run_cli("build", "--kind", "nosuch")
    assert out.returncode == 2
    assert "input error" in out.stderr


def test_missing_option_exits_2():
    # usage errors: a missing option or verb, an unknown verb, a value of
    # the wrong type or outside its choices, an abbreviated option
    for args in (("build",), (), ("nosuch",),
                 ("build", "--kind", "z", "--n", "1.5"),
                 ("geometry", "--variant", "bogus"),
                 ("verify", "--suite", "nosuch"),
                 ("tensor", "--fac", "bool,bool")):
        out = run_cli(*args)
        assert out.returncode == 2, args
        assert out.stdout == "", args
        assert "Traceback" not in out.stderr, args


def test_help_exits_0():
    top = run_cli("--help")
    verb = run_cli("tensor", "--help")
    assert top.returncode == verb.returncode == 0
    assert all(name in top.stdout for name in VERBS)
    assert "--factors" in verb.stdout


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_output_is_utf8_whatever_the_stream_encoding(encoding):
    # element names hold "⊗", which neither encoding can write
    args = [sys.executable, "-m", "qlattice.cli", "tensor",
            "--factors", "bool,bool"]
    want = subprocess.run(args, capture_output=True, env=ENV)
    got = subprocess.run(args, capture_output=True,
                         env=dict(ENV, PYTHONIOENCODING=encoding))
    assert want.returncode == got.returncode == 0, got.stderr
    assert "⊗".encode("utf-8") in want.stdout
    assert got.stdout == want.stdout


def test_cap_exceeded_exits_3():
    # a cap below the count, and a negative cap on each verb that takes one
    for args in (("complete", "--kind", "zprime", "--n", "2",
                  "--cap-elements", "3"),
                 ("complete", "--kind", "zprime", "--n", "3",
                  "--cap-elements", "-1"),
                 ("tensor", "--factors", "zprime:2,zprime:2",
                  "--cap-elements", "-1"),
                 ("geometry", "--cap-elements", "-1")):
        out = run_cli(*args)
        assert out.returncode == 3, args
        assert out.stdout == "", args
        assert "cap exceeded" in out.stderr, args


@pytest.mark.parametrize("args", [
    ("tensor", "--factors", "z:2,z:7"),
    ("broadcast", "--kind", "simplex", "--n", "4")], ids=["z2z7", "s4s4"])
def test_default_tensor_cap_stops_large_simplex_tensors(args):
    # 16,383 and 65,535 elements: the default cap refuses them before any
    # enumeration, so the verb exits 3 at once instead of running minutes
    out = run_cli(*args, timeout=30)
    assert out.returncode == 3
    assert "cap exceeded" in out.stderr


def test_cap_override_env():
    # no environment variable overrides an explicit --cap-elements
    env = dict(ENV, QLATTICE_CAP_OVERRIDE="1000000")
    out = run_cli("complete", "--kind", "zprime", "--n", "2",
                  "--cap-elements", "3", env=env)
    assert out.returncode == 3
    assert "cap exceeded" in out.stderr


def test_output_is_deterministic():
    first = run_cli("contexts", "--kind", "zprime", "--n", "2")
    second = run_cli("contexts", "--kind", "zprime", "--n", "2")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["count"] == 6


def test_tensor_command():
    out = run_cli("tensor", "--factors", "bool,bool")
    assert out.returncode == 0
    assert json.loads(out.stdout)["elements"] == 15


def test_export_dot():
    out = run_cli("export", "--kind", "zprime", "--n", "2")
    assert out.returncode == 0
    assert out.stdout.startswith("digraph")


def test_out_file_matches_stdout(tmp_path):
    target = tmp_path / "space.json"
    direct = run_cli("build", "--kind", "bool")
    filed = run_cli("build", "--kind", "bool", "--out", str(target))
    assert direct.returncode == filed.returncode == 0
    assert target.read_text() == direct.stdout


def test_unwritable_out_exits_2(tmp_path):
    target = tmp_path / "missing" / "space.json"
    out = run_cli("build", "--kind", "bool", "--out", str(target))
    assert out.returncode == 2
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error:")
    assert out.stdout == ""


def test_broadcast_command():
    out = run_cli("broadcast", "--kind", "zprime", "--n", "2")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["broadcasts"] is False


def test_verify_suite_exit_code_and_lines():
    out = run_cli("verify", "--suite", "closure")
    assert out.returncode == 0
    lines = [l for l in out.stderr.splitlines() if l.strip()]
    assert lines and all(l.startswith("PASS") for l in lines)
    report = json.loads(out.stdout)
    assert report["pass"] is True


def test_bell_command_reports_nonlocal():
    out = run_cli("bell", "--na", "2", "--nb", "2")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["nonlocal"] is True
    assert payload["lambda"] is None


def test_bell_command_on_three_axes_closes_sigma_alone():
    # sigma is closed on the tensor, so the 3x3 completion, tens of seconds
    # of work, is never enumerated
    out = run_cli("bell", "--na", "3", "--nb", "3")
    assert out.returncode == 0, out.stderr
    payload = json.loads(out.stdout)
    assert payload["nonlocal"] is True
    assert payload["lambda"] is None
    assert len(payload["sigma"]) == 3
    small = json.loads(run_cli("bell", "--na", "2", "--nb", "2").stdout)
    assert payload["phi"] == small["phi"]


@pytest.mark.parametrize("factors", ["zprime:two,bool", "bool,zprime:1.5"])
def test_non_integer_numbers_exit_2(factors):
    out = run_cli("tensor", "--factors", factors)
    assert out.returncode == 2
    assert "input error:" in out.stderr
    assert "Traceback" not in out.stderr


def test_geometry_json_is_the_incidence_object(geo_narrow):
    out = run_cli("geometry")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert isinstance(payload, dict)
    assert payload == json.loads(json.dumps(export_incidence(geo_narrow)))


_NUMPY_PROBE = """
import json, sys
start = set(sys.modules)
import qlattice.cli
from qlattice import ontic, realspaces, verify
report = verify.run_suite()
space = ontic.build_completion(realspaces.spin_space(2)).space
loaded = {name.split(".")[0] for name in set(sys.modules) - start}
before = "numpy" in sys.modules
leq = space.leq
print(json.dumps({
    "pass": report["pass"], "numpy_before_leq": before,
    "outside_stdlib": sorted(loaded - sys.stdlib_module_names - {"qlattice"}),
    "numpy_after_leq": "numpy" in sys.modules,
    "type": type(leq).__module__ + "." + type(leq).__name__,
    "dtype": str(leq.dtype), "writeable": bool(leq.flags.writeable),
    "cached": space.leq is leq,
    "matches_up": [[bool(row >> j & 1) for j in range(space.n)]
                   for row in space.up] == leq.tolist()}))
"""


def test_command_path_leaves_numpy_unloaded():
    # a fresh interpreter: the CLI import and the whole verify suite load
    # nothing outside the standard library, and only a read of the leq view
    # loads numpy
    out = subprocess.run([sys.executable, "-c", _NUMPY_PROBE],
                         capture_output=True, text=True, env=ENV)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {
        "pass": True, "numpy_before_leq": False, "outside_stdlib": [],
        "numpy_after_leq": True,
        "type": "numpy.ndarray", "dtype": "bool", "writeable": False,
        "cached": True, "matches_up": True}
