"""Network-level simulation: topologies, oblivious/deterministic
routing, reduced-detail routers, and the Figure 19 experiment harness."""

from .mesh import Mesh
from .netsim import (
    ClosNetworkSimulation,
    NetworkConfig,
    NetworkSimulation,
    run_network_sweep,
)
from .router import (
    NetworkRouter,
    NetworkRouterConfig,
    OutputLink,
    pipeline_depth_for_radix,
)
from .topology import FoldedClos, PortRef, Topology

__all__ = [
    "FoldedClos",
    "Mesh",
    "PortRef",
    "Topology",
    "NetworkRouter",
    "NetworkRouterConfig",
    "OutputLink",
    "pipeline_depth_for_radix",
    "NetworkConfig",
    "NetworkSimulation",
    "ClosNetworkSimulation",
    "run_network_sweep",
]
