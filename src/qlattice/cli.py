"""Batch front end: build spaces, run the constructions, verify, export.

Exit codes: 0 success (all requested checks pass), 1 verification failure,
2 malformed input, 3 a size cap was exceeded.
"""

import json
import sys

import click

from .core_order import InputError, CapExceeded
from .realspaces import make_space, classify
from .ontic import CANDIDATE_CAP, build_completion
from .tensor import ELEMENT_CAP, nfold_tensor, indeterministic_tensor
from .contextuality import maximal_contexts
from .geometry import build_geometry, export_incidence, consistency_dot
from . import quantum
from . import verify as verify_mod

_KIND_ALIASES = {
    "bool": "bool",
    "z": "Z", "simplex": "Z",
    "zprime": "Zprime", "spin": "Zprime",
    "custom": "custom",
}


def _space(kind, n):
    try:
        mapped = _KIND_ALIASES[kind.lower()]
    except KeyError:
        raise InputError("unknown space kind %r" % (kind,))
    return make_space(mapped, n)


def _emit(payload, out, fmt="json"):
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True,
                          ensure_ascii=False) + "\n"
    else:
        text = payload
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError("cannot write --out %s: %s"
                             % (out, exc.strerror or exc))
    else:
        click.echo(text, nl=False)


def _space_payload(rs):
    payload = rs.to_json_dict()
    payload["elements"] = rs.space.n
    payload["classification"] = classify(rs)
    return payload


@click.group()
def cli():
    """Finite order-theoretic state spaces and their verification suite."""


@cli.command()
@click.option("--kind", required=True)
@click.option("--n", type=int, default=None)
@click.option("--out", default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "dot"]),
              default="json")
def build(kind, n, out, fmt):
    """Construct a real state space."""
    rs = _space(kind, n)
    if fmt == "dot":
        _emit(rs.space.to_dot(), out, fmt="dot")
    else:
        _emit(_space_payload(rs), out)


@cli.command()
@click.option("--factors", required=True,
              help="comma list of kind:size factors, e.g. zprime:2,zprime:2")
@click.option("--cap-elements", type=int, default=ELEMENT_CAP)
@click.option("--out", default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "dot"]),
              default="json")
def tensor(factors, cap_elements, out, fmt):
    """Minimal tensor product of the listed factors."""
    parts = []
    for item in factors.split(","):
        bits = item.strip().split(":")
        kind = bits[0]
        try:
            n = int(bits[1]) if len(bits) > 1 else None
        except ValueError:
            raise InputError("factor size in %r is not an integer" % item)
        parts.append(_space(kind, n))
    ts = nfold_tensor(parts, cap=cap_elements)
    if fmt == "dot":
        _emit(ts.space.to_dot(), out, fmt="dot")
    else:
        payload = ts.space.to_json_dict()
        payload["elements"] = ts.space.n
        _emit(payload, out)


@cli.command()
@click.option("--kind", required=True)
@click.option("--n", type=int, default=None)
@click.option("--cap-elements", type=int, default=CANDIDATE_CAP)
@click.option("--out", default=None)
def complete(kind, n, cap_elements, out):
    """Ontic completion of a real space."""
    rs = _space(kind, n)
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


@cli.command()
@click.option("--kind", required=True)
@click.option("--n", type=int, default=None)
@click.option("--out", default=None)
def contexts(kind, n, out):
    """Maximal measurement contexts over the completion."""
    rs = _space(kind, n)
    comp = build_completion(rs)
    cover = maximal_contexts(comp)
    _emit({
        "count": len(cover),
        "contexts": [c.serialize(comp.space) for c in cover],
    }, out)


@cli.command()
@click.option("--na", type=int, default=2)
@click.option("--nb", type=int, default=2)
@click.option("--variant", type=click.Choice(["narrow", "wide"]),
              default="narrow")
@click.option("--cap-elements", type=int, default=CANDIDATE_CAP)
@click.option("--out", default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "dot"]),
              default="json")
def geometry(na, nb, variant, cap_elements, out, fmt):
    """Point-line incidence geometry of a two-factor completion."""
    from .realspaces import spin_space
    left, right = spin_space(na), spin_space(nb)
    ts, comp = indeterministic_tensor(left, right, cap=cap_elements)
    geo = build_geometry(comp, ts, variant=variant)
    if fmt == "dot":
        _emit(consistency_dot(geo), out, fmt="dot")
    else:
        _emit(export_incidence(geo), out)


@cli.command()
@click.option("--na", type=int, default=2)
@click.option("--nb", type=int, default=2)
@click.option("--out", default=None)
def bell(na, nb, out):
    """Bell state, marginals, and the global-state scan verdict."""
    scenario = quantum.bell_scenario(na, nb)
    _emit(quantum.bell_report(scenario), out)


@cli.command()
@click.option("--kind", required=True)
@click.option("--n", type=int, default=None)
@click.option("--out", default=None)
def broadcast(kind, n, out):
    """Broadcastability verdict with witness."""
    rs = _space(kind, n)
    _emit(quantum.broadcast_obstruction(rs), out)


@cli.command()
@click.option("--suite", default="all",
              type=click.Choice(sorted(verify_mod.SUITES)))
@click.option("--out", default=None)
def verify(suite, out):
    """Run the theorem suite; exit 0 iff every check passes."""
    report = verify_mod.run_suite(verify_mod.SUITES[suite])
    _emit(report, out)
    lines = []
    for slug in verify_mod.SUITES[suite]:
        ok = report["checks"][slug]["pass"]
        lines.append("%s %s" % ("PASS" if ok else "FAIL", slug))
    click.echo("\n".join(lines), err=True)
    if not report["pass"]:
        sys.exit(1)


@cli.command()
@click.option("--kind", required=True)
@click.option("--n", type=int, default=None)
@click.option("--out", default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "dot"]),
              default="dot")
def export(kind, n, out, fmt):
    """Emit a space as JSON or as a covering-edge dot graph."""
    rs = _space(kind, n)
    if fmt == "dot":
        _emit(rs.space.to_dot(), out, fmt="dot")
    else:
        _emit(rs.to_json_dict(), out)


def main():
    try:
        cli(standalone_mode=False)
    except click.exceptions.Abort:
        sys.exit(2)
    except click.ClickException as exc:
        exc.show()
        sys.exit(2)
    except InputError as exc:
        click.echo("input error: %s" % exc, err=True)
        sys.exit(2)
    except CapExceeded as exc:
        click.echo("cap exceeded: %s" % exc, err=True)
        sys.exit(3)
    except SystemExit:
        raise


if __name__ == "__main__":
    main()
