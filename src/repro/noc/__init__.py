"""Cycle-accurate flit-level wormhole mesh NoC simulator.

This package is the reproduction's substitute for the SoCLib + gNoCSim
simulation infrastructure used in the paper's evaluation.  It models:

* input-buffered wormhole routers with credit-based flow control and XY
  routing (:mod:`repro.noc.router`),
* NICs with configurable packetization -- regular or WaP
  (:mod:`repro.noc.nic`),
* the assembled mesh and its cycle-driven simulation loop
  (:mod:`repro.noc.network`),
* per-run traffic statistics (:mod:`repro.noc.stats`).
"""

from .flit import Flit, FlitType, Message, Packet
from .network import Network
from .nic import NIC
from .router import Router
from .stats import LatencySummary, NetworkStats

__all__ = [
    "Flit",
    "FlitType",
    "Message",
    "Packet",
    "Network",
    "NIC",
    "Router",
    "LatencySummary",
    "NetworkStats",
]
