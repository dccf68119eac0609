"""Virtual-terminal augmentation of a network for a demand.

For demand (h0, h1, h2) the network is extended with virtual terminals T1P,
T2P (the paper's T1' and T2', where each terminal's data is notionally
decoded) and the collector node Y1. The result is a plain Network: its first
edges are the base network's, and the virtual edges come after them, so a
caller holding the base reads them as extended.edges[len(base.edges):].
Bundle sizes encode the per-terminal rates, so min-cuts to the virtual nodes
measure exactly the capacity available for each demand split. The virtual
nodes lead only to Y1, and Y1 leads nowhere. The paper's second collector,
fed from T1' and T2', is not built: the second recoloring pass starts from
the first pass's paths to T2' and runs no flow into it.
"""

from __future__ import annotations

from .errors import InputError
from .netgraph import RESERVED_PREFIX, Demand, Network, add_virtual

T1P = "__T1P"
T2P = "__T2P"
Y1 = "__Y1"


def build_augmented(net: Network, d: Demand) -> Network:
    """Extend net with T1', T2', Y1 and the four rate-sized virtual bundles.

    Bundle multiplicities (as unit edges): T1->T1' and T1'->Y1 carry h0+h1,
    T2->T2' carries h0+h2, T2'->Y1 carries h2. The collector ends up with
    in-degree h0+h1+h2. A base label with the reserved '__' prefix raises
    InputError; net looks its labels up once and caches the first such one.
    """
    label = net._reserved_label
    if label is not None:
        raise InputError(f"node label {label!r} uses the reserved '__' prefix")
    t1, t2 = net.terminals
    bundles = [
        (t1, T1P, d.h0 + d.h1),
        (T1P, Y1, d.h0 + d.h1),
        (t2, T2P, d.h0 + d.h2),
        (T2P, Y1, d.h2),
    ]
    unit_edges = [(tail, head) for tail, head, count in bundles for _ in range(count)]
    return add_virtual(net, [T1P, T2P, Y1], unit_edges)
