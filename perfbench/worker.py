"""One benchmark phase in a fresh process; run.py starts it.

    python3 perfbench/worker.py '<json spec>'

The spec names the workload, the phase ("setup" stops after set-up, "run"
also times one pass and checks it), the seed, the number of the process's
input stream, whether to trace, the parent's CLOCK_MONOTONIC reading at
spawn, the scratch directory, and the file to write the result to.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    wl = workloads.WORKLOADS[spec["workload"]]
    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    state = wl.setup(spec["seed"], spec["stream"], spec["scratch"])
    out = {"setup_s": time.monotonic() - spec["spawn"]}
    if spec["phase"] == "run":
        p = wl.one_pass(state)
        out["rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = tracer.summary()
        out["gate_errors"] = wl.gate(state)
        out["pass"] = {"wall_s": p.wall_s, "latencies_s": p.latencies_s,
                       "attempted": p.attempted, "failed": p.failed,
                       "errors": p.errors}
    with open(spec["result"], "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
