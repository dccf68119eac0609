"""The bundled example network.

fig2.json is the shipped 9-node instance whose interior is the classic
butterfly: with demand (2, 1, 1) the private routes are forced onto the two
outer branches and the shared messages must be coded over the bottleneck.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .netgraph import Network


def fig2_path() -> Path:
    """Filesystem path of the bundled fig2.json fixture."""
    return Path(str(resources.files("dualcast").joinpath("data/fig2.json")))


def fig2_network() -> Network:
    from .cli import load_network_file

    return load_network_file(fig2_path())
