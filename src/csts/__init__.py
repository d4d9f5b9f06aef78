"""Constricted spatio-temporal sequential (CSTS) pattern mining.

Mines ordered event-type sequences from timestamped, geolocated event data,
ranks them by participation index, and condenses the result into the
constricted representation from which any pattern's participation index can
be recovered to within a chosen margin.

Typical use::

    from csts import MiningConfig, mine_csts
    tree, members = mine_csts(dataset, MiningConfig(radius=500.0,
                                                    window=720.0,
                                                    theta="0.05",
                                                    epsilon="0.1"))
"""

from .analysis import (
    CstsSet,
    PiEstimate,
    approximate_pi,
    extract_closed,
)
from .bottomup import extract_csts, mine_csts, run_bottom_up
from .model import (
    EventDataset,
    EventInstance,
    EventType,
    MaxTree,
    MiningConfig,
    Pattern,
    PatternNode,
    format_pattern,
    parse_pattern,
)
from .neighborhoods import NeighborhoodIndex
from .topdown import mine_all

__version__ = "0.1.0"

__all__ = [
    "CstsSet",
    "EventDataset",
    "EventInstance",
    "EventType",
    "MaxTree",
    "MiningConfig",
    "NeighborhoodIndex",
    "Pattern",
    "PatternNode",
    "PiEstimate",
    "approximate_pi",
    "extract_closed",
    "extract_csts",
    "format_pattern",
    "mine_all",
    "mine_csts",
    "parse_pattern",
    "run_bottom_up",
    "__version__",
]
