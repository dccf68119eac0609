"""Command-line surface and the JSON formats for networks and transfer plans.

Commands: check (feasibility verdict), synthesize (write a plan), verify
(prove that a plan delivers on its network), export-dot (render to Graphviz).
Exit codes are a stable contract: 0 ok, 1 input error (a usage error, or an
input file that cannot be read or an output file that cannot be written),
2 infeasible demand, 3 synthesis failure, 4 verification failure.

A plan file (version 3) holds the binary code as XORs: each coded edge lists
the inputs it XORs, and each decode row the positions in its terminal's
inputs that it XORs. field.bits records the symbol width m, 1..16, which
the XORs do not depend on.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Collection, Iterable, NoReturn

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
from .nccode import MAX_FIELD_BITS, MulticastCode, coding_vectors
from .netgraph import Demand, Network, expand_capacities
from .planner import TransferPlan, check_demand_size, check_feasibility, check_plan
from .planner import synthesize_with_diagnostics, verify_plan
from .recolor import ReroutingTrace

NETWORK_KEYS = ("nodes", "edges", "source", "terminals")
_EDGE_KEYS = frozenset(("from", "to", "cap"))
PLAN_VERSION = 3
PLAN_KEYS = ("version", "demand", "seed", "field", "x1_routes", "x2_routes", "support",
             "local_inputs", "decode")

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
    node_set = set(nodes)
    terminals = doc["terminals"]
    if not isinstance(terminals, list) or len(terminals) != 2:
        raise InputError(f"{origin}: terminals must be a pair of labels")
    if not isinstance(doc["edges"], list):
        raise InputError(f"{origin}: edges must be a list")
    weighted: list[tuple[str, str, int]] = []
    for i, entry in enumerate(doc["edges"]):
        if (
            isinstance(entry, dict)
            and _EDGE_KEYS.issuperset(entry)
            and isinstance(tail := entry.get("from"), str)
            and tail in node_set
            and isinstance(head := entry.get("to"), str)
            and head in node_set
        ):
            weighted.append((tail, head, entry.get("cap", 1)))
        else:
            _raise_edge_error(entry, i, node_set, origin)
    for label in (doc["source"], *terminals):
        if not isinstance(label, str) or label not in node_set:
            raise InputError(f"{origin}: {label!r} is not a declared node")
    try:
        net = Network(
            nodes=tuple(nodes),
            edges=tuple(expand_capacities(weighted)),
            source=doc["source"],
            terminals=(terminals[0], terminals[1]),
        )
    except (InputError, UnknownNodeError) as exc:
        raise InputError(f"{origin}: {exc}") from exc
    label = net._reserved_label  # cached: synthesis reads it again
    if label is not None:
        raise InputError(f"{origin}: node label {label!r} uses the reserved '__' prefix")
    return net


def _raise_edge_error(entry: Any, i: int, node_set: set[str], origin: str) -> NoReturn:
    """Raise the error for edge #i, an entry network_from_dict did not accept."""
    if not isinstance(entry, dict) or "from" not in entry or "to" not in entry:
        raise InputError(f"{origin}: edge #{i} needs 'from' and 'to'")
    _known_keys(entry, _EDGE_KEYS, f"{origin}: edge #{i}")
    for label in (entry["from"], entry["to"]):
        if not isinstance(label, str) or label not in node_set:
            raise InputError(f"{origin}: edge #{i} references unknown node {label!r}")
    raise AssertionError(f"edge #{i} was refused for no reason")


def _read_json(path: Path) -> Any:
    """The JSON document in a UTF-8 file; any failure to read it is an InputError.

    An object that repeats a key is refused: json.loads would keep only the
    last value, so the text of the others would be carried but never read.
    """

    def unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
        doc: dict[str, Any] = {}
        for key, value in pairs:
            if key in doc:
                raise InputError(f"{path}: key {key!r} is repeated in one object")
            doc[key] = value
        return doc

    try:
        return json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=unique_keys)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _write_text(path: str | None, text: str) -> None:
    """Write output text to the file path, or to stdout when path is empty.

    Always as UTF-8, DOT's default charset, so no locale fails a non-ASCII
    label; a text-only stdout (io.StringIO, say) takes the text as it is.
    Any failure to write a file is an InputError.
    """
    if not path:
        buffer = getattr(sys.stdout, "buffer", None)
        if buffer is None:
            sys.stdout.write(text)
        else:
            sys.stdout.flush()
            buffer.write(text.encode("utf-8"))
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def load_network_file(path: str | Path) -> Network:
    path = Path(path)
    return network_from_dict(_read_json(path), origin=str(path))


# ----------------------------------------------------------------------------
# Plan file format


# Input kinds, mapped to one shared string each for the parsed inputs.
_INPUT_KINDS = {"edge": "edge", "msg": "msg"}


def _decimal(text: str) -> int | None:
    """text as an integer if str writes that integer as text, else None."""
    try:
        value = int(text)
    except ValueError:
        return None
    return value if text == str(value) else None


def _json_object(value: Any, what: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{what} must be an object, got {value!r}")
    return value


def _json_list(value: Any, what: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{what} must be a list, got {value!r}")
    return value


def _known_keys(value: Any, keys: Collection[str], what: str) -> dict:
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


def _ints(value: Any, what: str) -> tuple[int, ...]:
    ids = tuple(_json_list(value, what))
    if {int}.issuperset(map(type, ids)):
        return ids
    return tuple(_json_int(e, f"{what} entry") for e in ids)


def _routes(value: Any, label: str) -> tuple[EdgePath, ...]:
    what = f"{label} route"
    return tuple(EdgePath(_ints(p, what)) for p in _json_list(value, f"{label}_routes"))


# These are called inside plan_from_dict's try, which prefixes the file name.
# Each accepts only the spelling dump_plan writes, so no text is carried
# unproved; check_plan checks the order of inputs and positions.
def _input(text: Any, where: str) -> tuple[str, int]:
    """An input spelt edge:<id> or msg:<index>, the number in decimal."""
    if isinstance(text, str):
        kind, _, ref = text.partition(":")
        ref_id = _decimal(ref)
        if kind in _INPUT_KINDS and ref_id is not None:
            return _INPUT_KINDS[kind], ref_id
    raise InputError(f"bad input {text!r} in {where}: not edge:<id> or msg:<index> in decimal")


def _local_inputs(value: Any) -> dict[int, tuple[tuple[str, int], ...]]:
    """The local_inputs object: per coded edge, the list of inputs it XORs."""
    local: dict[int, tuple[tuple[str, int], ...]] = {}
    for eid_text, inputs in _json_object(value, "local_inputs").items():
        eid = _decimal(eid_text)
        if eid is None:
            raise InputError(f"local_inputs key {eid_text!r} is not a decimal edge id")
        where = f"local_inputs[{eid_text!r}]"
        local[eid] = tuple(_input(text, where) for text in _json_list(inputs, where))
    return local


def _decode_rows(value: Any, t: str) -> tuple[tuple[int, ...], ...]:
    what = f"decode.{t}.rows"
    return tuple(_ints(row, f"{what} row") for row in _json_list(value, what))


def plan_from_dict(doc: Any, origin: str = "<plan>") -> TransferPlan:
    """Parse a plan document's JSON shapes and types; check_plan checks the rest.

    An object key that dump_plan does not write is refused, and so is an
    edge id or input it would spell differently, or a route list, route,
    input list, row list or row that is not a JSON list, so nothing is
    carried unproved. With one spelling per edge id, a parsed object cannot
    name an edge twice; check_plan refuses a list out of the order
    dump_plan writes, which also refuses a repeat.
    """
    if not isinstance(doc, dict):
        raise InputError(f"{origin}: top level must be an object")
    version = doc.get("version")
    if type(version) is not int or version != PLAN_VERSION:  # 3.0 equals 3 but is refused
        raise InputError(
            f"{origin}: unsupported plan version {version!r} (expected {PLAN_VERSION})"
        )
    try:
        _known_keys(doc, PLAN_KEYS, "plan")
        demand = Demand(**doc["demand"])
        field = _known_keys(doc["field"], ("bits",), "field")
        bits = _json_int(field["bits"], "field.bits")
        x1 = _routes(doc["x1_routes"], "x1")
        x2 = _routes(doc["x2_routes"], "x2")

        support = _ints(doc["support"], "support")
        local = _local_inputs(doc["local_inputs"])

        dec = _known_keys(doc["decode"], ("t1", "t2"), "decode")
        t1, t2 = (_known_keys(dec[t], ("inputs", "rows"), f"decode.{t}") for t in ("t1", "t2"))
        code = MulticastCode(  # refuses field bits outside 1..16
            field_bits=bits,
            h0=demand.h0,
            support=support,
            local_inputs=local,
            inputs_t1=_ints(t1["inputs"], "decode.t1.inputs"),
            inputs_t2=_ints(t2["inputs"], "decode.t2.inputs"),
            decode_t1=_decode_rows(t1["rows"], "t1"),
            decode_t2=_decode_rows(t2["rows"], "t2"),
        )
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


# dump_plan writes what json.dumps(doc, indent=2, sort_keys=True) writes:
# each member or item on its own line, two spaces deeper than its container,
# "[]" and "{}" when empty. A member line starts with its quoted key, and
# every key the format has is made of characters above '"', so sorting the
# lines of an object sorts its keys, "10" before "2".
_PADS = tuple(" " * n for n in range(0, 12, 2))  # indents of depths 0 to 5


def _lines(open_: str, items: Iterable[str], close: str, pad: str) -> str:
    inner = pad + "  "
    body = (",\n" + inner).join(items)
    return f"{open_}\n{inner}{body}\n{pad}{close}" if body else open_ + close


def _array(items: Iterable[str], pad: str) -> str:
    return _lines("[", items, "]", pad)


def _object(members: Iterable[str], pad: str) -> str:
    return _lines("{", members, "}", pad)


def dump_plan(plan: TransferPlan) -> str:
    """The plan as its version-3 file text, written in one pass.

    The text is json.dumps(doc, indent=2, sort_keys=True) + "\n" of the
    document the format defines, byte for byte, for any plan check_plan
    accepts whose ids, rates and seed are ints.
    """
    code = plan.multicast
    demand = plan.demand

    def ids(values: Iterable[int], depth: int) -> str:
        return _array(map(str, values), _PADS[depth])

    def decoder(inputs: tuple[int, ...], rows: tuple[tuple[int, ...], ...]) -> str:
        row_lists = _array([ids(row, 4) for row in rows], _PADS[3])
        return _object([f'"inputs": {ids(inputs, 3)}', f'"rows": {row_lists}'], _PADS[2])

    local = code.local_inputs
    inputs = sorted(
        f'"{eid}": ' + _array([f'"{kind}:{ref}"' for kind, ref in local[eid]], _PADS[2])
        for eid in code.support
    )
    return _object([
        '"decode": ' + _object([
            f'"t1": {decoder(code.inputs_t1, code.decode_t1)}',
            f'"t2": {decoder(code.inputs_t2, code.decode_t2)}',
        ], _PADS[1]),
        '"demand": ' + _object(
            [f'"h0": {demand.h0}', f'"h1": {demand.h1}', f'"h2": {demand.h2}'], _PADS[1]
        ),
        '"field": ' + _object([f'"bits": {code.field_bits}'], _PADS[1]),
        '"local_inputs": ' + _object(inputs, _PADS[1]),
        f'"seed": {plan.seed}',
        '"support": ' + ids(code.support, 1),
        f'"version": {PLAN_VERSION}',
        '"x1_routes": ' + _array([ids(p.edges, 2) for p in plan.x1_routes], _PADS[1]),
        '"x2_routes": ' + _array([ids(p.edges, 2) for p in plan.x2_routes], _PADS[1]),
    ], _PADS[0]) + "\n"


def load_plan_file(path: str | Path) -> TransferPlan:
    path = Path(path)
    return plan_from_dict(_read_json(path), origin=str(path))


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


def _dot_id(label: str) -> str:
    """label as a quoted DOT ID, with its backslashes and double quotes escaped."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(
    net: Network,
    plan: TransferPlan | None = None,
    augment_demand: Demand | None = None,
) -> str:
    """Render the network as a DOT digraph.

    With a plan, which must pass check_plan on net, the x1/x2 route edges get
    distinct styling and coded edges are labelled with the coding vectors
    their local inputs give, each entry 0x00 or 0x01. With augment_demand, the virtual nodes and
    bundles are included as dashed edges; a demand larger than a terminal's
    in-degree raises InfeasibleDemandError, as synthesis does.
    """
    target = net
    if augment_demand is not None:
        check_demand_size(net, augment_demand)
        target = build_augmented(net, augment_demand)

    vectors: dict[int, tuple[int, ...]] = {}
    if plan:
        check_plan(net, plan)
        vectors = coding_vectors(plan.multicast)
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
        out.append(f"  {_dot_id(v)}{suffix};")
    for i, e in enumerate(target.edges):
        attrs = [f'label="e{e.eid}"']
        if i >= len(net.edges):  # a virtual edge: build_augmented puts them last
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
            vec = ",".join(f"0x{c:02X}" for c in vectors[e.eid])
            attrs[0] = f'label="e{e.eid} [{vec}]"'
        out.append(f"  {_dot_id(e.tail)} -> {_dot_id(e.head)} [{', '.join(attrs)}];")
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
        print(f"FEASIBLE {report.describe()}")
        return EXIT_OK
    print(f"INFEASIBLE {report.describe()}")
    return EXIT_INFEASIBLE


def cmd_synthesize(args: argparse.Namespace) -> int:
    net = load_network_file(args.network)
    d = _demand_from_args(args)
    plan, passes = synthesize_with_diagnostics(
        net, d, args.seed, field_bits=args.field_bits
    )
    _write_text(args.output, dump_plan(plan))
    if args.output:
        print(f"plan written to {args.output}")
    if args.trace:
        _write_text(args.trace, dump_trace([(1, passes.pass1.trace), (2, passes.pass2.trace)]))
        # To stderr when the plan itself went to stdout.
        status = sys.stdout if args.output else sys.stderr
        print(f"rerouting trace written to {args.trace}", file=status)
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
    _write_text(args.output, export_dot(net, plan=plan, augment_demand=augment_demand))
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
        choices=range(1, MAX_FIELD_BITS + 1),
        help="symbol width m",
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
