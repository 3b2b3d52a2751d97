"""Batch front end: build spaces, run the constructions, verify, export.

Exit codes: 0 success (all requested checks pass), 1 verification failure,
2 malformed input, a usage error or an interrupt, 3 a size cap was exceeded.
Output is UTF-8 whatever the locale, as element names hold "⊗".
"""

import argparse
import json
import sys

from .core_order import InputError, CapExceeded
from .realspaces import make_space, classify, spin_space
from .ontic import CANDIDATE_CAP, build_completion
from .tensor import ELEMENT_CAP, nfold_tensor, indeterministic_tensor
from .contextuality import maximal_contexts
from .geometry import build_geometry, export_incidence, consistency_dot
from . import quantum
from . import verify as verify_mod


def _emit(payload, out, fmt="json"):
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True,
                          ensure_ascii=False) + "\n"
    else:
        text = payload
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError("cannot write --out %s: %s"
                             % (out, exc.strerror or exc))
    else:
        sys.stdout.write(text)


def _space_payload(rs):
    payload = rs.to_json_dict()
    payload["elements"] = rs.space.n
    payload["classification"] = classify(rs)
    return payload


def build(kind, n, out, fmt):
    rs = make_space(kind, n)
    if fmt == "dot":
        _emit(rs.space.to_dot(), out, fmt="dot")
    else:
        _emit(_space_payload(rs), out)


def tensor(factors, cap_elements, out, fmt):
    parts = []
    for item in factors.split(","):
        bits = item.strip().split(":")
        kind = bits[0]
        try:
            n = int(bits[1]) if len(bits) > 1 else None
        except ValueError:
            raise InputError("factor size in %r is not an integer" % item)
        parts.append(make_space(kind, n))
    ts = nfold_tensor(parts, cap=cap_elements)
    if fmt == "dot":
        _emit(ts.space.to_dot(), out, fmt="dot")
    else:
        payload = ts.space.to_json_dict()
        payload["elements"] = ts.space.n
        _emit(payload, out)


def complete(kind, n, cap_elements, out):
    rs = make_space(kind, n)
    comp = build_completion(rs, cap=cap_elements)
    hidden = [i for i in range(comp.space.n) if comp.is_hidden(i)]
    _emit({
        "elements": comp.space.n,
        "real": comp.space.n - len(hidden),
        "hidden": len(hidden),
        "names": list(comp.space.names),
        "components": {comp.space.names[i]: comp.serialize_element(i)
                       for i in hidden},
    }, out)


def contexts(kind, n, out):
    rs = make_space(kind, n)
    comp = build_completion(rs)
    cover = maximal_contexts(comp)
    _emit({
        "count": len(cover),
        "contexts": [c.serialize(comp.space) for c in cover],
    }, out)


def geometry(na, nb, variant, cap_elements, out, fmt):
    ts, comp = indeterministic_tensor(spin_space(na), spin_space(nb),
                                      cap=cap_elements)
    geo = build_geometry(comp, ts, variant=variant)
    if fmt == "dot":
        _emit(consistency_dot(geo), out, fmt="dot")
    else:
        _emit(export_incidence(geo), out)


def bell(na, nb, out):
    _emit(quantum.bell_report(quantum.bell_scenario(na, nb)), out)


def broadcast(kind, n, out):
    _emit(quantum.broadcast_obstruction(make_space(kind, n)), out)


def verify(suite, out):
    report = verify_mod.run_suite(verify_mod.SUITES[suite])
    _emit(report, out)
    for slug in verify_mod.SUITES[suite]:
        ok = report["checks"][slug]["pass"]
        print("%s %s" % ("PASS" if ok else "FAIL", slug), file=sys.stderr)
    if not report["pass"]:
        sys.exit(1)


def export(kind, n, out, fmt):
    rs = make_space(kind, n)
    if fmt == "dot":
        _emit(rs.space.to_dot(), out, fmt="dot")
    else:
        _emit(rs.to_json_dict(), out)


# the options that several verbs share, as (flag, add_argument keywords)
_KIND = "--kind", dict(required=True)
_N = "--n", dict(type=int, default=None)
_OUT = "--out", dict(default=None)
_NA = "--na", dict(type=int, default=2)
_NB = "--nb", dict(type=int, default=2)


def _fmt(default):
    return "--format", dict(dest="fmt", choices=["json", "dot"],
                            default=default)


def _cap(default):
    return "--cap-elements", dict(type=int, default=default)


# verb: (handler, help, options); each option lands in the handler's
# keyword of its dest
VERBS = {
    "build": (build, "Construct a real state space.",
              [_KIND, _N, _OUT, _fmt("json")]),
    "tensor": (tensor, "Minimal tensor product of the listed factors.",
               [("--factors", dict(required=True, help=(
                   "comma list of kind:size factors, e.g. "
                   "zprime:2,zprime:2"))),
                _cap(ELEMENT_CAP), _OUT, _fmt("json")]),
    "complete": (complete, "Ontic completion of a real space.",
                 [_KIND, _N, _cap(CANDIDATE_CAP), _OUT]),
    "contexts": (contexts, "Maximal measurement contexts over the "
                 "completion.", [_KIND, _N, _OUT]),
    "geometry": (geometry, "Point-line incidence geometry of a two-factor "
                 "completion.",
                 [_NA, _NB, ("--variant", dict(choices=["narrow", "wide"],
                                               default="narrow")),
                  _cap(CANDIDATE_CAP), _OUT, _fmt("json")]),
    "bell": (bell, "Bell state, marginals, and the global-state scan "
             "verdict.", [_NA, _NB, _OUT]),
    "broadcast": (broadcast, "Broadcastability verdict with witness.",
                  [_KIND, _N, _OUT]),
    "verify": (verify, "Run the theorem suite; exit 0 iff every check "
               "passes.",
               [("--suite", dict(choices=sorted(verify_mod.SUITES),
                                 default="all")), _OUT]),
    "export": (export, "Emit a space as JSON or as a covering-edge dot "
               "graph.", [_KIND, _N, _OUT, _fmt("dot")]),
}


def make_parser():
    """The argument parser, one subparser per verb.  No option may be
    abbreviated, and help is --help alone."""
    top = argparse.ArgumentParser(
        prog="qlattice", add_help=False, allow_abbrev=False, description=(
            "Finite order-theoretic state spaces and their verification "
            "suite."))
    verbs = top.add_subparsers(dest="verb", metavar="VERB", required=True)
    parsers = [top]
    for name, (handler, text, options) in VERBS.items():
        sub = verbs.add_parser(name, help=text, description=text,
                               add_help=False, allow_abbrev=False)
        sub.set_defaults(handler=handler)
        for flag, spec in options:
            sub.add_argument(flag, **spec)
        parsers.append(sub)
    for p in parsers:
        p.add_argument("--help", action="help",
                       help="show this message and exit")
    return top


def main():
    sys.stdout.reconfigure(encoding="utf-8")
    try:
        args = vars(make_parser().parse_args())
        del args["verb"]
        args.pop("handler")(**args)
    except KeyboardInterrupt:
        print(file=sys.stderr)  # end the line that the terminal's ^C began
        sys.exit(2)
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        sys.exit(2)
    except CapExceeded as exc:
        print("cap exceeded: %s" % exc, file=sys.stderr)
        sys.exit(3)


if __name__ == "__main__":
    main()
