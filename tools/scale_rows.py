"""Time the large tensor and completion builds, each in a fresh process.

    python3 tools/scale_rows.py OUT.json

The rows are the Z2⊗Z2 completion, the Z3⊗Z2 tensor and its completion,
and the Z3⊗Z3 and Z4⊗Z4 tensors.  Each row runs in its own interpreter
(this script with `--child NAME`), so no memo or allocator state carries
from one row to the next; the child reports its wall time, the element
count it built and its peak resident set size.  A completion row times the
tensor and the completion together and also reports the tensor on its own.
OUT.json gets one entry per row plus the host it ran on.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# name: (spin axes of the left factor, of the right factor, complete it)
ROWS = {
    "z2z2-completion": (2, 2, True),
    "z3z2-tensor": (3, 2, False),
    "z3z2-completion": (3, 2, True),
    "z3z3-tensor": (3, 3, False),
    "z4z4-tensor": (4, 4, False),
}


def run_row(name):
    """Build one row in this process and return its measurements."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from qlattice.ontic import OnticCompletion
    from qlattice.realspaces import spin_space
    from qlattice.tensor import build_tensor
    na, nb, complete = ROWS[name]
    start = time.perf_counter()
    ts = build_tensor(spin_space(na), spin_space(nb))
    out = {"name": name, "tensor_s": time.perf_counter() - start,
           "tensor_elements": len(ts)}
    elements = len(ts)
    if complete:
        elements = OnticCompletion(ts.real_space).space.n
    out["wall_s"] = time.perf_counter() - start
    out["elements"] = elements
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


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
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", name],
            env=env, capture_output=True, text=True, check=True)
        row = json.loads(done.stdout)
        rows.append(row)
        print("%-16s %6d elements %8.3f s %7.1f MB"
              % (name, row["elements"], row["wall_s"], row["peak_rss_mb"]),
              file=sys.stderr)
    import numpy
    report = {
        "command": "python3 tools/scale_rows.py " + " ".join(sys.argv[1:]),
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(),
                 "numpy": numpy.__version__},
        "rows": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
