"""Communication extension: topologies, transfer delays, WAN queueing.

Links and inter-cluster topologies (:mod:`repro.net.topology`), the Fig-1
scheduler→machine delivery delays (:mod:`repro.net.transfer`), and the WAN
contention + energy layer that turns federation links into queueing
resources (:mod:`repro.net.wan`).
"""

from .topology import CONTENTION_MODES, InterClusterTopology, Link
from .transfer import transfer_delay
from .wan import LinkChannel, LinkUsage, TransferPhase, WanManager, WanTransfer

__all__ = [
    "Link",
    "InterClusterTopology",
    "CONTENTION_MODES",
    "transfer_delay",
    "WanManager",
    "LinkChannel",
    "LinkUsage",
    "WanTransfer",
    "TransferPhase",
]
