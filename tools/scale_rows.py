"""Time the large builds and the geometry checks, each in a fresh process.

    python3 tools/scale_rows.py OUT.json

The rows are the Z2⊗Z2 completion, the Z3⊗Z2 tensor and its completion, the
Z3⊗Z3 tensor and its completion, the Z4⊗Z4 and Z5⊗Z5 tensors, the
simplex(3)² tensor that the verify suite's broadcasting check builds, the
completions of spin(8) and simplex(9), the Z3⊗Z2 geometry, the Z3⊗Z3 Bell
scenario and the CLI's verify suite.  Each row runs in its own interpreter
(this script with `--child NAME`), so no memo or allocator state carries
from one row to the next; the child reports its wall time, the element
count it built (none for cli-verify) and its peak resident set size.  A
completion row over a tensor times the tensor and the completion together
and also reports the tensor on its own.  Every completion row reports the
completion's hidden elements, its element count per antichain size, the
closed sets it indexed and the join candidates its search tried.  The
geometry row goes on to build the wide geometry over the completion, cut
the narrow one from it, as the verify suite does, and run verify_projective,
verify_ortho and verify_invariants; it reports the time of that part on its
own (geometry_s), of the wide build and the cut (build_s), of each verifier
and of three layers inside them (vy2_s, the exchange axiom; quadrangles_s, the quadrangle walk with its
witness tests; o4_s), the point counts, the verifiers' counts and pass
flags, and a digest of the full reports.  The Bell row builds the tensor,
the scenario and its report, as `qlattice bell` does, and reports the
member count of sigma and the verdict, or the error that stopped it.
The cli-verify row times `import qlattice.cli` and one run of the whole
verify suite, as `qlattice verify --suite all` does, and reports the
top-level modules outside the standard library that the two loaded (none,
as the package has no runtime dependencies).
Each row runs REPEATS times, each time in a fresh process.  A timing
(every `*_s` field) is the median of the runs; `wall_s_min` and
`peak_rss_mb_min` add the minimum, and `peak_rss_mb` is the median too.
Every other field must agree across the runs, or the script stops.
OUT.json gets one entry per row plus the host it ran on.
"""

import argparse
import collections
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEATS = 3

# name: (spin axes of the left factor, of the right factor, last stage),
# (kind, size, "completion") for a real space completed on its own, or
# (kind, size, "tensor") for its tensor square
ROWS = {
    "z2z2-completion": (2, 2, "completion"),
    "z3z2-tensor": (3, 2, "tensor"),
    "z3z2-completion": (3, 2, "completion"),
    "z3z3-tensor": (3, 3, "tensor"),
    "z3z3-completion": (3, 3, "completion"),
    "z4z4-tensor": (4, 4, "tensor"),
    "z5z5-tensor": (5, 5, "tensor"),
    "simplex3-square": ("simplex", 3, "tensor"),
    "spin8-completion": ("spin", 8, "completion"),
    "simplex9-completion": ("simplex", 9, "completion"),
    "z3z2-geometry": (3, 2, "geometry"),
    "z3z3-bell": (3, 3, "bell"),
    "cli-verify": (None, None, "cli-verify"),
}


def run_row(name):
    """Build one row in this process and return its measurements."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if name == "cli-verify":
        return run_cli_verify()
    from qlattice.ontic import OnticCompletion
    from qlattice.realspaces import simplex_space, spin_space
    from qlattice.tensor import build_tensor
    na, nb, stage = ROWS[name]
    start = time.perf_counter()
    if stage == "completion" and isinstance(na, str):
        rs = {"spin": spin_space, "simplex": simplex_space}[na](nb)
        out, elements = {"name": name}, rs.space.n
    else:
        factors = (simplex_space(nb), simplex_space(nb)) \
            if na == "simplex" else (spin_space(na), spin_space(nb))
        ts = build_tensor(*factors)
        rs = ts.real_space
        out = {"name": name, "tensor_s": time.perf_counter() - start,
               "tensor_elements": len(ts)}
        elements = len(ts)
    if stage in ("completion", "geometry"):
        comp = OnticCompletion(rs)
        elements = comp.space.n
    if stage == "completion":
        sizes = collections.Counter(len(u) for u in comp.elements)
        out.update(hidden=sum(map(comp.is_hidden, range(elements))),
                   antichain_sizes={str(k): sizes[k] for k in sorted(sizes)},
                   closed_sets=len(rs.space._closed[1]),
                   candidates=comp.candidates)
    if stage == "geometry":
        out.update(run_geometry(comp, ts))
    if stage == "bell":
        out.update(run_bell(ts))
    out["wall_s"] = time.perf_counter() - start
    out["elements"] = elements
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def run_cli_verify():
    """The CLI import and the whole verify suite, timed apart, with the
    suite's verdict and the modules outside the standard library that they
    loaded."""
    before = set(sys.modules)
    start = time.perf_counter()
    import qlattice.cli  # noqa: F401
    from qlattice import verify
    imported = time.perf_counter()
    report = verify.run_suite()
    done = time.perf_counter()
    loaded = {name.split(".")[0] for name in set(sys.modules) - before}
    return {"name": "cli-verify", "import_s": imported - start,
            "verify_s": done - imported, "wall_s": done - start,
            "pass": report["pass"],
            "outside_stdlib": sorted(loaded - sys.stdlib_module_names
                                     - {"qlattice"}),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def run_geometry(comp, ts):
    """Build both geometries over a completion and run the verifiers, as
    the geometry check of `qlattice verify` does on two qubits."""
    from qlattice import geometry
    from qlattice.geometry import (build_geometry, verify_invariants,
                                   verify_ortho, verify_projective)
    layers = {}
    for name, key in (("_verify_exchange", "vy2_s"),
                      ("_verify_quadrangles", "quadrangles_s"),
                      ("_verify_o4", "o4_s")):
        setattr(geometry, name, _timed(getattr(geometry, name), layers, key))
    start = time.perf_counter()
    wide = build_geometry(comp, ts, variant="wide")
    narrow = wide.narrowed()
    out = {"points": {"wide": len(wide), "narrow": len(narrow)},
           "build_s": time.perf_counter() - start}
    reports = {}
    for key, verify, args in (
            ("projective", verify_projective, (wide,)),
            ("ortho", verify_ortho, (narrow, wide)),
            ("invariants", verify_invariants, (wide, 400, 7))):
        begin = time.perf_counter()
        reports[key] = verify(*args)
        out[verify.__name__ + "_s"] = time.perf_counter() - begin
    out["geometry_s"] = time.perf_counter() - start
    out.update(layers)
    # each section's counts and pass flags, and the length of its failures
    out["reports"] = {
        key: {part: {k: len(v) if isinstance(v, list) else v
                     for k, v in section.items()}
              for part, section in report.items() if isinstance(section, dict)}
        for key, report in reports.items()}
    out["reports_sha256"] = hashlib.sha256(
        json.dumps(reports, sort_keys=True).encode()).hexdigest()
    return out


def _timed(fn, times, key):
    """fn, adding the wall time of each call to times[key]."""
    def timed(*args):
        begin = time.perf_counter()
        try:
            return fn(*args)
        finally:
            times[key] = times.get(key, 0.0) + time.perf_counter() - begin
    return timed


def run_bell(ts):
    """The default Bell scenario on the tensor and its report."""
    from qlattice.core_order import CapExceeded, InputError
    from qlattice.quantum import BellScenario, bell_report
    left, right = ts.left, ts.right
    try:
        scenario = BellScenario(left, right, left.space.index("a"),
                                left.space.index("b"), right.space.index("a"),
                                right.space.index("b"), ts=ts)
    except (CapExceeded, InputError) as exc:
        return {"error": "%s: %s" % (type(exc).__name__, exc)}
    report = bell_report(scenario)
    return {"sigma_members": len(report["sigma"]),
            "nonlocal": report["nonlocal"]}


def repeat_row(name, env):
    """Run one row REPEATS times in fresh processes; timings and peak RSS
    become medians, with the minimum of wall_s and peak_rss_mb."""
    runs = [json.loads(subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", name],
        env=env, capture_output=True, text=True, check=True).stdout)
        for _ in range(REPEATS)]
    measured = [k for k in runs[0] if k.endswith("_s") or k == "peak_rss_mb"]
    for run in runs[1:]:
        for key in set(run) | set(runs[0]):
            if key not in measured and run.get(key) != runs[0].get(key):
                raise SystemExit("row %s: %s differs between runs"
                                 % (name, key))
    row = dict(runs[0])
    for key in measured:
        row[key] = statistics.median(run[key] for run in runs)
    for key in ("wall_s", "peak_rss_mb"):
        row[key + "_min"] = min(run[key] for run in runs)
    return row


def main():
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(run_row(sys.argv[2])))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    args = parser.parse_args()
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    rows = []
    for name in ROWS:
        row = repeat_row(name, env)
        rows.append(row)
        print("%-16s %6d elements %8.3f s (min %.3f) %7.1f MB (min %.1f)"
              % (name, row.get("elements", 0), row["wall_s"],
                 row["wall_s_min"], row["peak_rss_mb"],
                 row["peak_rss_mb_min"]),
              file=sys.stderr)
    import numpy
    report = {
        "command": "python3 tools/scale_rows.py " + " ".join(sys.argv[1:]),
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(),
                 "numpy": numpy.__version__},
        "repeats": REPEATS,
        "rows": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
