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
from typing import Any, Iterable, NoReturn

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
_EDGE_KEYS = frozenset(("from", "to", "cap"))
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
        return Network(
            nodes=tuple(nodes),
            edges=tuple(expand_capacities(weighted)),
            source=doc["source"],
            terminals=(terminals[0], terminals[1]),
        )
    except (InputError, UnknownNodeError) as exc:
        raise InputError(f"{origin}: {exc}") from exc


def _raise_edge_error(entry: Any, i: int, node_set: set[str], origin: str) -> NoReturn:
    """Raise the error for edge #i, an entry network_from_dict did not accept."""
    if not isinstance(entry, dict) or "from" not in entry or "to" not in entry:
        raise InputError(f"{origin}: edge #{i} needs 'from' and 'to'")
    _known_keys(entry, ("from", "to", "cap"), f"{origin}: edge #{i}")
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


def load_network_file(path: str | Path) -> Network:
    path = Path(path)
    return network_from_dict(_read_json(path), origin=str(path))


# ----------------------------------------------------------------------------
# Plan file format


def _hex(value: int) -> str:
    return f"0x{value:02X}"


class _QuotedHex(dict):
    """value -> _hex(value) as a JSON string; built for the values below 0x100."""

    def __missing__(self, value: int) -> str:
        return f'"{_hex(value)}"'


# Every value a GF(2^8) plan holds, spelt as dump_plan writes it and read
# back exactly; larger values take _hex and _parse_hex.
_HEX_VALUE = {_hex(v): v for v in range(0x100)}
_QUOTED_HEX = _QuotedHex((v, f'"{text}"') for text, v in _HEX_VALUE.items())
# Input kinds, mapped to one shared string each for the parsed keys.
_INPUT_KINDS = {"edge": "edge", "msg": "msg"}


# These are called inside plan_from_dict's try, which prefixes the file name.
# Each accepts only the spelling dump_plan writes, so no text is carried
# unproved.
def _parse_hex(text: Any, where: str) -> int:
    if not isinstance(text, str):
        raise InputError(f"expected a hex string, got {text!r}, in {where}")
    try:
        value = int(text, 16)
    except ValueError:
        pass
    else:
        if text == _hex(value):
            return value
    raise InputError(
        f"bad hex value {text!r} in {where}: not written as 0x and upper-case hex digits"
    )


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
    ids = tuple(_json_list(value, what))
    if {int}.issuperset(map(type, ids)):
        return ids
    return tuple(_json_int(e, f"{what} entry") for e in ids)


def _routes(value: Any, label: str) -> tuple[EdgePath, ...]:
    what = f"{label} route"
    return tuple(EdgePath(_edge_ids(p, what)) for p in _json_list(value, f"{label}_routes"))


def _local_coeffs(value: Any) -> dict[int, dict[tuple[str, int], int]]:
    """The local_coeffs object, each coefficient entry read in one step.

    An input ref of ASCII digits with no leading zero is read by int and a
    value in _HEX_VALUE by lookup; anything else goes through _decimal or
    _parse_hex, which accept the other canonical spellings (a negative ref,
    a value of 0x100 or more) and refuse the rest.
    """
    local: dict[int, dict[tuple[str, int], int]] = {}
    for eid_text, coeffs in _json_object(value, "local_coeffs").items():
        eid = _decimal(eid_text)
        if eid is None:
            raise InputError(f"local_coeffs key {eid_text!r} is not a decimal edge id")
        parsed: dict[tuple[str, int], int] = {}
        for key_text, c in _json_object(coeffs, f"local_coeffs[{eid_text!r}]").items():
            kind, _, ref = key_text.partition(":")
            kind = _INPUT_KINDS.get(kind)
            if ref.isascii() and ref.isdigit() and (ref[0] != "0" or len(ref) == 1):
                ref_id: int | None = int(ref)
            else:
                ref_id = _decimal(ref)
            if kind is None or ref_id is None:
                raise InputError(
                    f"bad coefficient key {key_text!r}: not edge:<id> or msg:<index> in decimal"
                )
            try:
                parsed[kind, ref_id] = _HEX_VALUE[c]
            except (KeyError, TypeError):  # TypeError: an unhashable value
                parsed[kind, ref_id] = _parse_hex(c, f"the local coefficients of edge {eid}")
        local[eid] = parsed
    return local


def _decode_matrix(value: Any, t: str) -> tuple[tuple[int, ...], ...]:
    """decode.<t>.matrix, each row read through _HEX_VALUE in one map.

    A row the table does not cover is read again entry by entry through
    _parse_hex, which accepts a canonical value of 0x100 or more and
    otherwise raises for the first entry that is not canonical.
    """
    rows = []
    for row in _json_list(value, f"decode.{t}.matrix"):
        _json_list(row, f"decode.{t}.matrix row")
        try:
            rows.append(tuple(map(_HEX_VALUE.__getitem__, row)))
        except (KeyError, TypeError):
            rows.append(tuple(_parse_hex(c, f"decode matrix of {t.upper()}") for c in row))
    return tuple(rows)


def plan_from_dict(doc: Any, origin: str = "<plan>") -> TransferPlan:
    """Parse a plan document's JSON shapes and types; check_plan checks the rest.

    An object key that dump_plan does not write is refused, and so is an
    edge id, input ref or hex value it would spell differently, or a route
    list, route, matrix or matrix row that is not a JSON list, so nothing is
    carried unproved. With one spelling per edge and input, a parsed object
    cannot name either twice.
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
        modulus = get_field(bits).modulus  # refuses bits outside 1..16 first
        if _parse_hex(field["modulus"], "field.modulus") != modulus:
            raise InputError(
                f"field.modulus {field['modulus']!r} is not {_hex(modulus)}, "
                f"the modulus of GF(2^{bits})"
            )
        x1 = _routes(doc["x1_routes"], "x1")
        x2 = _routes(doc["x2_routes"], "x2")

        support = _edge_ids(doc["support"], "support")
        local = _local_coeffs(doc["local_coeffs"])

        dec = _known_keys(doc["decode"], ("t1", "t2"), "decode")
        t1, t2 = (_known_keys(dec[t], ("inputs", "matrix"), f"decode.{t}") for t in ("t1", "t2"))
        code = MulticastCode(
            field_bits=bits,
            h0=demand.h0,
            support=support,
            local_coeffs=local,
            inputs_t1=_edge_ids(t1["inputs"], "decode.t1.inputs"),
            inputs_t2=_edge_ids(t2["inputs"], "decode.t2.inputs"),
            decode_t1=_decode_matrix(t1["matrix"], "t1"),
            decode_t2=_decode_matrix(t2["matrix"], "t2"),
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
    """The plan as its version-2 file text, written in one pass.

    The text is json.dumps(doc, indent=2, sort_keys=True) + "\n" of the
    document the format defines, byte for byte, for any plan check_plan
    accepts whose ids, rates and seed are ints.
    """
    code = plan.multicast
    demand = plan.demand
    bits = code.field_bits
    spell = _QUOTED_HEX.__getitem__

    def ids(values: Iterable[int], depth: int) -> str:
        return _array(map(str, values), _PADS[depth])

    def decoder(inputs: tuple[int, ...], matrix: tuple[tuple[int, ...], ...]) -> str:
        rows = [_array(map(spell, row), _PADS[4]) for row in matrix]
        return _object([f'"inputs": {ids(inputs, 3)}', f'"matrix": {_array(rows, _PADS[3])}'],
                       _PADS[2])

    local = code.local_coeffs
    coeffs = sorted(
        f'"{eid}": '
        + _object(sorted([f'"{kind}:{ref}": {spell(c)}' for (kind, ref), c in local[eid].items()]),
                  _PADS[2])
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
        '"field": ' + _object([
            f'"bits": {bits}',
            f'"modulus": "{_hex(DEFAULT_MODULI[bits])}"',
            f'"name": "GF(2^{bits})"',
        ], _PADS[1]),
        '"local_coeffs": ' + _object(coeffs, _PADS[1]),
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
