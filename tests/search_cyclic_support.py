"""Exhaustive search of small networks for CyclicSupportError.

Run from the repository root; it takes minutes, so pytest does not collect it:

    PYTHONPATH=src python tests/search_cyclic_support.py --max-edges 8

Every multigraph on the nodes s, t1, t2, a, b with 1 to --max-edges unit
edges is crossed with every nonzero demand of total rate at most 4 that
meets the three cut conditions, and each pair is synthesized. Networks on
fewer nodes are among them, with a relay left isolated. An edge into the
source never lies on an edge-disjoint path from it, so no such edge is
drawn: that leaves 16 ordered node pairs, and a multigraph is a multiset of
them.

One line per edge count gives the graphs, the feasible demands, the
CyclicSupportError refusals and any other error; the first few instances
refused or failed are printed after the table. The exit status is 1 when
any demand was refused or failed.
"""

from __future__ import annotations

import argparse
import sys
import time
from itertools import combinations_with_replacement

from dualcast.errors import CyclicSupportError, DualcastError
from dualcast.netgraph import Demand, Edge, Network
from dualcast.planner import check_feasibility, synthesize

NODES = ("s", "t1", "t2", "a", "b")
PAIRS = tuple((u, v) for u in NODES for v in NODES if u != v and v != "s")
DEMANDS = tuple(
    Demand(h0, h1, h2)
    for h0 in range(5)
    for h1 in range(5 - h0)
    for h2 in range(5 - h0 - h1)
    if h0 + h1 + h2
)
SHOWN = 5  # instances printed per kind of fault


def search(max_edges: int) -> int:
    refused: list[tuple] = []
    failed: list[tuple] = []
    totals = [0, 0]
    start = time.perf_counter()
    print("edges  graphs  feasible  refused  failed")
    for k in range(1, max_edges + 1):
        n_graphs = n_feasible = 0
        n_refused, n_failed = len(refused), len(failed)
        for pairs in combinations_with_replacement(PAIRS, k):
            net = Network(
                nodes=NODES,
                edges=tuple(Edge(i, u, v) for i, (u, v) in enumerate(pairs)),
                source="s",
                terminals=("t1", "t2"),
            )
            n_graphs += 1
            for d in DEMANDS:
                if not check_feasibility(net, d).feasible:
                    continue
                n_feasible += 1
                try:
                    synthesize(net, d, seed=0)
                except CyclicSupportError as exc:
                    refused.append((pairs, d, exc))
                except DualcastError as exc:
                    failed.append((pairs, d, exc))
        totals[0] += n_graphs
        totals[1] += n_feasible
        print(f"{k:5}  {n_graphs:6}  {n_feasible:8}  {len(refused) - n_refused:7}  "
              f"{len(failed) - n_failed:6}", flush=True)
    seconds = time.perf_counter() - start
    print(f"total  {totals[0]:6}  {totals[1]:8}  {len(refused):7}  {len(failed):6}  "
          f"in {seconds:.0f} s")
    for kind, found in (("refused", refused), ("failed", failed)):
        for pairs, d, exc in found[:SHOWN]:
            edges = " ".join(f"{u}->{v}" for u, v in pairs)
            print(f"{kind}: ({d.h0},{d.h1},{d.h2}) on {edges}: {type(exc).__name__}: {exc}")
    return 1 if refused or failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-edges", type=int, default=8,
                        help="the most unit edges a network has (default 8)")
    return search(parser.parse_args(argv).max_edges)


if __name__ == "__main__":
    sys.exit(main())
