"""Command-line surface and the JSON formats for networks and transfer plans.

Commands: check (feasibility verdict), synthesize (write a plan), verify
(prove that a plan delivers on its network), export-dot (render to Graphviz).
Exit codes are a stable contract: 0 ok, 1 input error (a usage error too),
2 infeasible demand, 3 synthesis failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, NoReturn

from .augment import RESERVED_PREFIX, build_augmented
from .errors import (
    DualcastError,
    InfeasibleDemandError,
    InputError,
    PlanMismatchError,
    UnknownEdgeError,
    UnknownNodeError,
)
from .flow import EdgePath
from .nccode import DEFAULT_MODULI, MulticastCode, coding_vectors, get_field
from .netgraph import Demand, Network, expand_capacities
from .planner import TransferPlan, check_demand_size, check_feasibility, check_plan
from .planner import synthesize_with_diagnostics, verify_plan
from .recolor import ReroutingTrace

NETWORK_KEYS = ("nodes", "edges", "source", "terminals")
PLAN_VERSION = 2
PLAN_KEYS = ("version", "demand", "seed", "field", "x1_routes", "x2_routes", "support",
             "local_coeffs", "decode")

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_SYNTHESIS = 3
EXIT_VERIFY = 4


# ----------------------------------------------------------------------------
# Network file format


def network_from_dict(doc: Any, origin: str = "<network>") -> Network:
    if not isinstance(doc, dict):
        raise InputError(f"{origin}: top level must be an object")
    _known_keys(doc, NETWORK_KEYS, f"{origin}: network")
    for key in NETWORK_KEYS:
        if key not in doc:
            raise InputError(f"{origin}: missing key {key!r}")
    nodes = doc["nodes"]
    if not isinstance(nodes, list) or not all(isinstance(v, str) for v in nodes):
        raise InputError(f"{origin}: nodes must be a list of strings")
    for label in nodes:
        if label.startswith(RESERVED_PREFIX):
            raise InputError(f"{origin}: node label {label!r} uses the reserved '__' prefix")
    node_set = set(nodes)
    terminals = doc["terminals"]
    if not isinstance(terminals, list) or len(terminals) != 2:
        raise InputError(f"{origin}: terminals must be a pair of labels")
    if not isinstance(doc["edges"], list):
        raise InputError(f"{origin}: edges must be a list")
    weighted: list[tuple[str, str, int]] = []
    for i, entry in enumerate(doc["edges"]):
        if not isinstance(entry, dict) or "from" not in entry or "to" not in entry:
            raise InputError(f"{origin}: edge #{i} needs 'from' and 'to'")
        _known_keys(entry, ("from", "to", "cap"), f"{origin}: edge #{i}")
        tail, head = entry["from"], entry["to"]
        for label in (tail, head):
            if not isinstance(label, str) or label not in node_set:
                raise InputError(f"{origin}: edge #{i} references unknown node {label!r}")
        weighted.append((tail, head, entry.get("cap", 1)))
    for label in (doc["source"], *terminals):
        if not isinstance(label, str) or label not in node_set:
            raise InputError(f"{origin}: {label!r} is not a declared node")
    try:
        return Network(
            nodes=tuple(nodes),
            edges=tuple(expand_capacities(weighted)),
            source=doc["source"],
            terminals=(terminals[0], terminals[1]),
        )
    except (InputError, UnknownNodeError) as exc:
        raise InputError(f"{origin}: {exc}") from exc


def load_network_file(path: str | Path) -> Network:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return network_from_dict(doc, origin=str(path))


# ----------------------------------------------------------------------------
# Plan file format


def _hex(value: int) -> str:
    return f"0x{value:02X}"


# These raise inside plan_from_dict's try, which prefixes the file name.
def _parse_hex(text: Any) -> int:
    if not isinstance(text, str):
        raise InputError(f"expected a hex string, got {text!r}")
    try:
        return int(text, 16)
    except ValueError as exc:
        raise InputError(f"bad hex value {text!r}") from exc


def _json_object(value: Any, what: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{what} must be an object, got {value!r}")
    return value


def _known_keys(value: Any, keys: tuple[str, ...], what: str) -> dict:
    """value as an object with no key outside keys; a missing key fails on lookup."""
    obj = _json_object(value, what)
    for key in obj:
        if key not in keys:
            raise InputError(f"{what} has unknown key {key!r}")
    return obj


def _json_int(value: Any, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def _edge_ids(value: Any, what: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise InputError(f"{what} must be a list, got {value!r}")
    return tuple(_json_int(e, f"{what} entry") for e in value)


def plan_to_dict(plan: TransferPlan) -> dict[str, Any]:
    code = plan.multicast
    return {
        "version": PLAN_VERSION,
        "demand": {"h0": plan.demand.h0, "h1": plan.demand.h1, "h2": plan.demand.h2},
        "seed": plan.seed,
        "field": {
            "name": f"GF(2^{code.field_bits})",
            "bits": code.field_bits,
            "modulus": _hex(code.modulus),
        },
        "x1_routes": [list(p.edges) for p in plan.x1_routes],
        "x2_routes": [list(p.edges) for p in plan.x2_routes],
        "support": list(code.support),
        "local_coeffs": {
            str(eid): {
                f"{kind}:{ref}": _hex(c) for (kind, ref), c in code.local_coeffs[eid].items()
            }
            for eid in code.support
        },
        "decode": {
            "t1": {
                "inputs": list(code.inputs_t1),
                "matrix": [[_hex(c) for c in row] for row in code.decode_t1],
            },
            "t2": {
                "inputs": list(code.inputs_t2),
                "matrix": [[_hex(c) for c in row] for row in code.decode_t2],
            },
        },
    }


def plan_from_dict(doc: Any, origin: str = "<plan>") -> TransferPlan:
    """Parse a plan document's JSON shapes and types; check_plan checks the rest.

    An object key that plan_to_dict does not write is refused, so nothing is
    carried unproved.
    """
    if not isinstance(doc, dict):
        raise InputError(f"{origin}: top level must be an object")
    if doc.get("version") != PLAN_VERSION:
        raise InputError(
            f"{origin}: unsupported plan version {doc.get('version')!r} "
            f"(expected {PLAN_VERSION})"
        )
    try:
        _known_keys(doc, PLAN_KEYS, "plan")
        demand = Demand(**doc["demand"])
        field = _known_keys(doc["field"], ("name", "bits", "modulus"), "field")
        bits = _json_int(field["bits"], "field.bits")
        if field["name"] != f"GF(2^{bits})":
            raise InputError(f"field.name {field['name']!r} does not match field.bits {bits}")
        modulus = _parse_hex(field["modulus"])
        x1 = tuple(EdgePath(_edge_ids(p, "x1 route")) for p in doc["x1_routes"])
        x2 = tuple(EdgePath(_edge_ids(p, "x2 route")) for p in doc["x2_routes"])

        support = _edge_ids(doc["support"], "support")
        local: dict[int, dict[tuple[str, int], int]] = {}
        for eid_text, coeffs in _json_object(doc["local_coeffs"], "local_coeffs").items():
            eid = int(eid_text)
            if eid in local:
                raise InputError(f"local_coeffs names edge {eid} twice")
            parsed: dict[tuple[str, int], int] = {}
            for key_text, value in _json_object(coeffs, f"local_coeffs[{eid_text!r}]").items():
                kind, _, ref = key_text.partition(":")
                if kind not in ("edge", "msg") or not ref.lstrip("-").isdigit():
                    raise InputError(f"bad coefficient key {key_text!r}")
                parsed[(kind, int(ref))] = _parse_hex(value)
            if len(parsed) != len(coeffs):
                raise InputError(f"local_coeffs[{eid_text!r}] names an input twice")
            local[eid] = parsed

        dec = _known_keys(doc["decode"], ("t1", "t2"), "decode")
        t1, t2 = (_known_keys(dec[t], ("inputs", "matrix"), f"decode.{t}") for t in ("t1", "t2"))
        code = MulticastCode(
            field_bits=bits,
            modulus=modulus,
            h0=demand.h0,
            support=support,
            local_coeffs=local,
            inputs_t1=_edge_ids(t1["inputs"], "decode.t1.inputs"),
            inputs_t2=_edge_ids(t2["inputs"], "decode.t2.inputs"),
            decode_t1=tuple(tuple(_parse_hex(c) for c in row) for row in t1["matrix"]),
            decode_t2=tuple(tuple(_parse_hex(c) for c in row) for row in t2["matrix"]),
        )
        get_field(bits, modulus)  # validates the field parameters
        return TransferPlan(
            demand=demand,
            seed=_json_int(doc["seed"], "seed"),
            x1_routes=x1,
            x2_routes=x2,
            multicast=code,
        )
    except InputError as exc:
        raise InputError(f"{origin}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{origin}: malformed plan file ({exc})") from exc


def dump_plan(plan: TransferPlan) -> str:
    return json.dumps(plan_to_dict(plan), indent=2, sort_keys=True) + "\n"


def load_plan_file(path: str | Path) -> TransferPlan:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return plan_from_dict(doc, origin=str(path))


def dump_trace(traces: list[tuple[int, ReroutingTrace]]) -> str:
    """Rerouting steps as JSON lines, tagged with their pass number."""
    lines = []
    for pass_no, trace in traces:
        for step in trace.steps:
            lines.append(
                json.dumps(
                    {
                        "pass": pass_no,
                        "green_index": step.green_index,
                        "shared_edge": step.shared_edge,
                        "red_index": step.red_index,
                        "prefix": list(step.prefix_swapped.edges),
                    },
                    sort_keys=True,
                )
            )
    return "".join(line + "\n" for line in lines)


# ----------------------------------------------------------------------------
# DOT export


def export_dot(
    net: Network,
    plan: TransferPlan | None = None,
    augment_demand: Demand | None = None,
) -> str:
    """Render the network as a DOT digraph.

    With a plan, which must pass check_plan on net, the x1/x2 route edges get
    distinct styling and coded edges are labelled with the coding vectors
    their local coefficients give. With augment_demand, the virtual nodes and
    bundles are included as dashed edges; a demand larger than a terminal's
    in-degree raises InfeasibleDemandError, as synthesis does.
    """
    target = net
    virtual_ids: frozenset[int] = frozenset()
    if augment_demand is not None:
        check_demand_size(net, augment_demand)
        aug = build_augmented(net, augment_demand)
        target = aug.net
        virtual_ids = aug.virtual_edge_ids

    vectors: dict[int, tuple[int, ...]] = {}
    if plan:
        check_plan(net, plan)
        code = plan.multicast
        vectors = coding_vectors(code.field, code.support, code.local_coeffs, code.h0)
    x1_edges = {eid for p in plan.x1_routes for eid in p.edges} if plan else set()
    x2_edges = {eid for p in plan.x2_routes for eid in p.edges} if plan else set()

    out = ["digraph network {", "  rankdir=LR;"]
    for v in target.nodes:
        attrs = []
        if v == net.source:
            attrs.append("shape=box")
        elif v in net.terminals:
            attrs.append("shape=doublecircle")
        if v.startswith(RESERVED_PREFIX):
            attrs.append("style=dashed")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        out.append(f'  "{v}"{suffix};')
    for e in target.edges:
        attrs = [f'label="e{e.eid}"']
        if e.eid in virtual_ids:
            attrs.append("style=dashed")
        if e.eid in x1_edges:
            attrs.append("color=blue")
            attrs.append("penwidth=2")
            attrs[0] = f'label="e{e.eid} x1"'
        elif e.eid in x2_edges:
            attrs.append("color=red")
            attrs.append("penwidth=2")
            attrs[0] = f'label="e{e.eid} x2"'
        elif e.eid in vectors:
            vec = ",".join(_hex(c) for c in vectors[e.eid])
            attrs[0] = f'label="e{e.eid} [{vec}]"'
        out.append(f'  "{e.tail}" -> "{e.head}" [{", ".join(attrs)}];')
    out.append("}")
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------------
# Commands


def _demand_from_args(args: argparse.Namespace) -> Demand:
    return Demand(args.h0, args.h1, args.h2)


def cmd_check(args: argparse.Namespace) -> int:
    net = load_network_file(args.network)
    d = _demand_from_args(args)
    report = check_feasibility(net, d)
    names = ("S->T1", "S->T2", "S->{T1,T2}")
    for name, cut, req in zip(names, report.cuts, report.required):
        print(f"min-cut {name}: {cut} (needs >= {req})")
    if report.feasible:
        print(f"FEASIBLE {report.describe()[len('feasible '):]}")
        return EXIT_OK
    print(f"INFEASIBLE {report.describe()[len('infeasible '):]}")
    return EXIT_INFEASIBLE


def cmd_synthesize(args: argparse.Namespace) -> int:
    net = load_network_file(args.network)
    d = _demand_from_args(args)
    plan, passes = synthesize_with_diagnostics(
        net, d, args.seed, field_bits=args.field_bits
    )
    text = dump_plan(plan)
    if args.output:
        Path(args.output).write_text(text)
        print(f"plan written to {args.output}")
    else:
        sys.stdout.write(text)
    if args.trace:
        Path(args.trace).write_text(
            dump_trace([(1, passes.pass1.trace), (2, passes.pass2.trace)])
        )
        print(f"rerouting trace written to {args.trace}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    net = load_network_file(args.network)
    plan = load_plan_file(args.plan)
    report = verify_plan(net, plan, trials=args.trials)
    if report.passed:
        print(f"OK: delivery proved; {report.trials} trials decoded exactly")
        return EXIT_OK
    for failure in report.failures[:10]:
        print(f"FAIL trial {failure.trial} at {failure.terminal}: {failure.detail}")
    print(f"{len(report.failures)} failures over {report.trials} trials")
    return EXIT_VERIFY


def cmd_export_dot(args: argparse.Namespace) -> int:
    net = load_network_file(args.network)
    plan = load_plan_file(args.plan) if args.plan else None
    augment_demand = None
    if args.augmented:
        augment_demand = _demand_from_args(args)
    text = export_dot(net, plan=plan, augment_demand=augment_demand)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """A parser whose usage errors exit 1, an input error, not argparse's 2.

    Exit code 2 means an infeasible demand. Subparsers are built from their
    parent's class, so they inherit this.
    """

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="dualcast",
        description=(
            "Decide feasibility of a two-terminal demand with overlapping "
            "message sets and synthesize a hybrid routing + network-coding "
            "transmission plan. Rates are integers; pre-scale rational rates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_demand_flags(p: argparse.ArgumentParser, required: bool = True) -> None:
        p.add_argument("--h0", type=int, required=required, default=0,
                       help="shared rate wanted by both terminals")
        p.add_argument("--h1", type=int, required=required, default=0,
                       help="private rate wanted by T1")
        p.add_argument("--h2", type=int, required=required, default=0,
                       help="private rate wanted by T2")

    p_check = sub.add_parser("check", help="feasibility verdict for a demand")
    p_check.add_argument("network", help="network JSON file")
    add_demand_flags(p_check)
    p_check.set_defaults(func=cmd_check)

    p_synth = sub.add_parser("synthesize", help="produce a transfer plan")
    p_synth.add_argument("network", help="network JSON file")
    add_demand_flags(p_synth)
    p_synth.add_argument("--seed", type=int, default=0, help="recorded in the plan only")
    p_synth.add_argument(
        "--field-bits",
        type=int,
        default=8,
        choices=sorted(DEFAULT_MODULI),
        help="symbol field GF(2^m)",
    )
    p_synth.add_argument("-o", "--output", help="plan file to write (default: stdout)")
    p_synth.add_argument("--trace", help="also write the rerouting trace as JSON lines")
    p_synth.set_defaults(func=cmd_synthesize)

    p_verify = sub.add_parser("verify", help="prove that a plan delivers on its network")
    p_verify.add_argument("network", help="network JSON file")
    p_verify.add_argument("plan", help="plan JSON file")
    p_verify.add_argument("--trials", type=int, default=100, help="random message tuples to test")
    p_verify.set_defaults(func=cmd_verify)

    p_dot = sub.add_parser("export-dot", help="render network (and plan) to Graphviz DOT")
    p_dot.add_argument("network", help="network JSON file")
    p_dot.add_argument("plan", nargs="?", help="optional plan JSON file for styling")
    p_dot.add_argument("--augmented", action="store_true",
                       help="include the virtual terminal gadget (needs --h0/--h1/--h2)")
    add_demand_flags(p_dot, required=False)
    p_dot.add_argument("-o", "--output", help="DOT file to write (default: stdout)")
    p_dot.set_defaults(func=cmd_export_dot)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleDemandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (InputError, UnknownNodeError, UnknownEdgeError, PlanMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DualcastError as exc:
        print(f"synthesis error: {exc}", file=sys.stderr)
        return EXIT_SYNTHESIS


if __name__ == "__main__":
    sys.exit(main())
