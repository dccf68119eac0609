"""Closed-loop benchmark of dualcast's check / synthesize / verify pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

One process, one thread, one instance at a time. Each instance goes through
the public API and the CLI's JSON functions: network_from_dict,
check_feasibility, synthesize, dump_plan, plan_from_dict and
verify_plan(trials=100). The workload's cases (see workloads.py) are generated
from --seed and run as whole passes until --seconds have passed; every pass
must produce the same plan bytes. --trace 0 reports the end-to-end metrics.
--trace 1 spends half the time untraced and half with spans around every
layer call (see tracer.py), and reports the per-layer metrics. Times are
scaled to a fixed host speed measured between calls (see speed.py).

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. The lines before it print every metric with its unit and
sample count. Full results go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from speed import REFERENCE_NS, Speedometer  # noqa: E402
from tracer import SPAN_METRICS, Tracer  # noqa: E402

SETUPS = 9  # set-up is repeated and its median reported
MODULES = ("augment", "cli", "errors", "flow", "nccode", "netgraph", "planner", "recolor")
OPS = ("check", "synthesize", "verify")
ERROR_TYPES = ("CyclicSupportError", "CodeConstructionError", "InfeasibleResidualError",
               "TheoremViolationError")

END_TO_END_UNITS = {
    "instances_per_s": "1/s",
    **{f"{op}_ms.{p}": "ms" for op in OPS for p in ("p50", "p90")},
    "verified_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_dualcast() -> dict:
    """Import dualcast afresh from this checkout's src/.

    Returns its modules by short name, and the package itself as "api".
    """
    for name in [m for m in sys.modules if m == "dualcast" or m.startswith("dualcast.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"dualcast.{name}") for name in MODULES}
    modules["api"] = sys.modules["dualcast"]
    where = Path(modules["cli"].__file__).resolve().parent
    if where != SRC / "dualcast":
        raise ImportError(f"dualcast was imported from {where}, not from {SRC}")
    return modules


class Pipeline:
    """The API calls one instance makes, traced or not."""

    def __init__(self, modules: dict, tracer: Tracer | None = None):
        api, cli, errors = modules["api"], modules["cli"], modules["errors"]
        self.Demand = modules["netgraph"].Demand
        self.DualcastError = errors.DualcastError
        # What the CLI reports as exit 1 or 2; any other DualcastError from
        # synthesize is its exit 3, a typed refusal to synthesize.
        self.not_refusals = (errors.InfeasibleDemandError, errors.InputError,
                             errors.UnknownNodeError, errors.UnknownEdgeError,
                             errors.PlanMismatchError)
        # The package's own names: the tracer wraps only the modules' copies.
        calls = {
            "network_from_dict": (cli.network_from_dict, "cli.network_from_dict", None),
            "check_feasibility": (api.check_feasibility, "api.check_feasibility", None),
            "synthesize": (api.synthesize, "planner.synthesize", None),
            "dump_plan": (cli.dump_plan, "cli.dump_plan", self._observe_dump),
            "plan_from_dict": (cli.plan_from_dict, "cli.plan_from_dict", None),
            "verify_plan": (api.verify_plan, "planner.verify_plan", self._observe_verify),
        }
        self.tracer = tracer
        for attr, (fn, name, observe) in calls.items():
            setattr(self, attr, tracer.wrap(fn, name, observe) if tracer else fn)

    def _observe_dump(self, args, kwargs, text, span) -> None:
        self.tracer.counters["cli.plan_bytes"] += len(text.encode())

    def _observe_verify(self, args, kwargs, report, span) -> None:
        plan = args[1]
        routed = sum(len(p.edges) for p in (*plan.x1_routes, *plan.x2_routes))
        symbols = report.trials * (len(plan.multicast.support) + routed)
        self.tracer.counters["planner.verify_plan.symbols"] += symbols


class Samples:
    """Start and duration, in ns, of each timed call of one pass."""

    def __init__(self) -> None:
        self.start = array("q")
        self.took = array("q")

    def add(self, start: int, took: int) -> None:
        self.start.append(start)
        self.took.append(took)


@dataclass
class Pass:
    """One pass over all of a workload's cases."""

    samples: dict = field(default_factory=lambda: {op: Samples() for op in OPS})
    instances: Samples = field(default_factory=Samples)  # whole pipeline, per instance
    verified: int = 0
    digest: str = ""


@dataclass
class Phase:
    """What a run of whole passes measured, and what went wrong in it."""

    speed: Speedometer = field(default_factory=Speedometer)
    passes: list = field(default_factory=list)
    attempted: int = 0
    feasible: int = 0
    verified: int = 0
    broken: int = 0
    refused: int = 0
    errors: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)

    def broken_output(self, what: str) -> bytes:
        self.broken += 1
        if len(self.problems) < 5:
            self.problems.append(what)
        return f"broken {what}\n".encode()

    def per_call(self, key: str, scaled: bool = True) -> list:
        """Each call's median time over the passes, in ns (key: an op, or "instance").

        Every pass makes the same calls in the same order, so the k-th sample
        of each pass times the same call. Scaled times are at the reference
        speed (see speed.py).
        """
        rows = [p.instances if key == "instance" else p.samples[key] for p in self.passes]
        scale = self.speed.scale if scaled else (lambda start, took: took)
        return [statistics.median(scale(row.start[k], row.took[k]) for row in rows)
                for k in range(min(len(row.took) for row in rows))]


def timed(samples: Samples, fn, *args, **kwargs):
    t0 = perf_counter_ns()
    result = fn(*args, **kwargs)
    samples.add(t0, perf_counter_ns() - t0)
    return result


def run_instance(pipe: Pipeline, net, case, demand, phase: Phase, record: Pass) -> bytes:
    """One instance through the pipeline; returns its contribution to the plan digest."""
    phase.attempted += 1
    try:
        d = pipe.Demand(*demand)
        report = timed(record.samples["check"], pipe.check_feasibility, net, d)
        expected = workloads.feasible(case.cuts, demand)
        if tuple(report.cuts) != case.cuts or report.feasible != expected:
            return phase.broken_output(
                f"{case.group} {demand}: check gave cuts {report.cuts}, "
                f"feasible={report.feasible}; expected {case.cuts}, feasible={expected}"
            )
        if not expected:
            return b"infeasible\n"
        phase.feasible += 1
        try:
            plan = timed(record.samples["synthesize"], pipe.synthesize, net, d, case.seed,
                         field_bits=case.field_bits)
        except pipe.DualcastError as exc:
            if isinstance(exc, pipe.not_refusals):
                raise
            name = type(exc).__name__
            phase.refused += 1
            phase.errors[name] += 1
            return f"refused {name}\n".encode()
        text = pipe.dump_plan(plan)
        loaded = pipe.plan_from_dict(json.loads(text))
        result = timed(record.samples["verify"], pipe.verify_plan, net, loaded,
                       trials=workloads.TRIALS)
        if not result.passed:
            return phase.broken_output(f"{case.group} {demand}: plan failed verification "
                                       f"({result.failures[0].detail})")
        record.verified += 1
        phase.verified += 1
        return text.encode()
    except Exception as exc:  # counted as a broken output; the run goes on
        phase.errors[type(exc).__name__] += 1
        return phase.broken_output(
            f"{case.group} {demand}: {''.join(traceback.format_exception_only(exc)).strip()}"
        )


def run_pass(pipe: Pipeline, cases, phase: Phase) -> None:
    record = Pass()
    digest = hashlib.sha256()
    instance = len(phase.passes) * sum(len(c.demands) for c in cases)
    for case in cases:
        for j, demand in enumerate(case.demands):
            phase.speed.tick()
            if pipe.tracer:
                pipe.tracer.current_instance = instance
            t0 = perf_counter_ns()
            if j == 0:
                net = pipe.network_from_dict(case.doc)
            digest.update(run_instance(pipe, net, case, demand, phase, record))
            record.instances.add(t0, perf_counter_ns() - t0)
            instance += 1
    phase.speed.tick(force=True)
    record.digest = digest.hexdigest()
    phase.passes.append(record)


def measure(pipe: Pipeline, cases, seconds: float) -> Phase:
    """Whole passes over the cases until `seconds` have passed."""
    phase = Phase()
    gc.collect()
    t0 = perf_counter_ns()
    while True:
        if pipe.tracer:
            pipe.tracer.begin_pass()
        run_pass(pipe, cases, phase)
        if pipe.tracer:
            pipe.tracer.end_pass()
        if perf_counter_ns() - t0 >= seconds * 1e9:
            return phase


def set_up(workload: str, seed: int, speed: Speedometer):
    """Import, generate the cases, and run the first case once untimed.

    Returns the set-up time in seconds at the reference speed, the modules
    and the cases.
    """
    speed.tick(force=True)
    t0 = perf_counter_ns()
    modules = load_dualcast()
    cases = workloads.generate(workload, seed)
    run_pass(Pipeline(modules), cases[:1], Phase())
    took = perf_counter_ns() - t0
    speed.tick(force=True)
    return speed.scale(t0, took) / 1e9, modules, cases


def percentile(sorted_ns: list, q: float) -> tuple[float, int]:
    """Nearest-rank percentile in ms, and how many samples lie beyond it."""
    rank = max(1, math.ceil(q * len(sorted_ns)))
    return sorted_ns[rank - 1] / 1e6, len(sorted_ns) - rank


def end_to_end(phase: Phase, setup_s: float, scaled: bool = True) -> dict:
    pass_ns = sum(phase.per_call("instance", scaled))
    metrics = {"instances_per_s": {"value": phase.passes[0].verified / (pass_ns / 1e9)}}
    for op in OPS:
        ns = sorted(phase.per_call(op, scaled)) or [0]
        for label, q in (("p50", 0.5), ("p90", 0.9)):
            value, beyond = percentile(ns, q)
            metrics[f"{op}_ms.{label}"] = {"value": value, "n": len(ns), "beyond": beyond}
    metrics["verified_frac"] = {"value": phase.verified / max(1, phase.feasible)}
    metrics["setup_s"] = {"value": setup_s}
    metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    for name, unit in END_TO_END_UNITS.items():
        metrics[name]["unit"] = unit
    return metrics


def per_layer(tracer: Tracer, traced: Phase, untraced: Phase, problems: list) -> tuple[dict, list]:
    """Per-layer metrics per pass: counts repeat exactly, times are medians at reference speed."""
    own = tracer.self_times()
    problems += tracer.check_nesting(own, "planner.synthesize")
    rows = tracer.per_pass(own, traced.speed)
    metrics = {
        name: {"value": statistics.median(row.get(name, 0) for row in rows), "unit": unit}
        for name, unit in SPAN_METRICS
    }
    n_passes = len(traced.passes)
    for name in ERROR_TYPES:
        metrics[f"errors.{name}"] = {"value": traced.errors[name] / n_passes, "unit": "count"}
    other = sum(n for name, n in traced.errors.items() if name not in ERROR_TYPES)
    metrics["errors.other"] = {"value": other / n_passes, "unit": "count"}
    for op in OPS:
        overhead = (statistics.median(traced.per_call(op) or [0])
                    - statistics.median(untraced.per_call(op) or [0])) / 1e6
        metrics[f"trace.overhead.{op}_ms.p50"] = {"value": overhead, "unit": "ms"}
    metrics["trace.spans_per_pass"] = {"value": len(tracer.start) / n_passes, "unit": "count"}
    return metrics, rows


def host_info() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def report_lines(metrics: dict) -> list[str]:
    lines = []
    for name, m in metrics.items():
        extra = f"  (n={m['n']}, {m['beyond']} beyond)" if "n" in m else ""
        lines.append(f"{name:40s} {m['value']:14.6f} {m['unit']}{extra}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dualcast" / "__init__.py").is_file():
        print(f"perfbench: no dualcast package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    speed = Speedometer()
    setup_times, input_digests = [], set()
    for _ in range(SETUPS):
        seconds, modules, cases = set_up(args.workload, args.seed, speed)
        setup_times.append(seconds)
        input_digests.add(hashlib.sha256(workloads.canonical_bytes(cases)).hexdigest())
    setup_s = statistics.median(setup_times)
    problems: list[str] = []
    if len(input_digests) != 1:
        problems.append("the same seed generated different inputs")
    input_digest = input_digests.pop()

    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = measure(Pipeline(modules), cases, budget)
    phases = [untraced]
    metrics = end_to_end(untraced, setup_s)
    n_pairs = sum(len(c.demands) for c in cases)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_info(), "input_digest": input_digest,
        "plan_digest": untraced.passes[0].digest, "cases_per_pass": len(cases),
        "instances_per_pass": n_pairs, "passes": len(untraced.passes),
        "end_to_end": metrics, "end_to_end_unscaled": end_to_end(untraced, setup_s, False),
        "reference_us": [ns / 1e3 for ns in untraced.speed.took],
    }
    if args.trace:
        tracer = Tracer()
        tracer.install(modules)
        traced = measure(Pipeline(modules, tracer), cases, budget)
        phases.append(traced)
        layer_metrics, rows = per_layer(tracer, traced, untraced, problems)
        pair_group = [(c.group, c.edge_count) for c in cases for _ in c.demands]
        result.update(per_layer=layer_metrics, per_pass=rows, traced_passes=len(traced.passes),
                      groups=tracer.group_breakdown(lambda i: pair_group[i % n_pairs],
                                                    traced.speed))
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{args.workload}-spans.jsonl.gz")

    for phase in phases:
        problems += phase.problems
    digests = {p.digest for phase in phases for p in phase.passes}
    if len(digests) != 1:
        problems.append(f"plan digests differ between passes{' and phases' * args.trace}: "
                        f"{sorted(digests)}")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.broken for p in phases)
    refused = sum(p.refused for p in phases)
    feasible = sum(p.feasible for p in phases)
    result.update(
        failed_frac=(failed + refused) / max(1, feasible), feasible=feasible, refused=refused,
        broken=failed, errors=dict(sum((p.errors for p in phases), Counter())),
        problems=problems,
    )
    correct = failed == 0 and not problems
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))

    host = result["host"]
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: {len(cases)} cases, {n_pairs} instances per pass; "
          f"each call's median over {len(untraced.passes)} untraced passes")
    print(f"# host: cpu={host['cpu']!r} nproc={host['nproc']} python={host['python']}")
    print(f"# input_digest={input_digest} plan_digest={result['plan_digest']}")
    took = sorted(untraced.speed.took)
    print(f"# host speed: the reference took {took[0] / 1e3:.0f} / {took[len(took) // 2] / 1e3:.0f}"
          f" / {took[-1] / 1e3:.0f} us (min / median / max of {len(took)}); times below are "
          f"scaled to {REFERENCE_NS / 1e3:.0f} us")
    print(f"# failed_frac={result['failed_frac']:.6f} ({failed + refused} of {feasible} feasible "
          f"instances: {refused} refused, {failed} broken) errors={result['errors']}")
    for line in report_lines(metrics):
        print(line)
    shown = metrics
    if args.trace:
        print(f"# traced: per-layer figures per pass, median over {len(traced.passes)} "
              f"traced passes")
        for line in report_lines(layer_metrics):
            print(line)
        for group, row in result["groups"].items():
            print(f"# group {group}: " + " ".join(
                f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in row.items()))
        shown = layer_metrics
    for problem in problems:
        print(f"perfbench: FAIL: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in shown.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
