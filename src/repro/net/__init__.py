"""Simulated wide-area network.

This package stands in for the real Internet links between UIUC, CU and NCSA
in the MOST experiment.  It provides named :class:`Host`\\ s joined by
:class:`Link`\\ s with configurable latency, jitter and loss; partitions and
scheduled outages for fault injection; and a request/response :mod:`RPC
<repro.net.rpc>` layer that every grid service in the reproduction speaks.

The failure modes modelled here — transient packet loss, link outages,
partitions — are exactly the ones the paper's NTCP fault-tolerance features
(retry with at-most-once semantics) were designed to mask, and the ones that
terminated the public MOST run at step 1493.
"""

from repro.net.network import Host, Link, Message, Network
from repro.net.breaker import (
    BREAKER_STATES,
    BreakerConfig,
    BreakerOpen,
    CircuitBreaker,
)
from repro.net.faults import FaultInjector
from repro.net.retry import RetryPolicy
from repro.net.rpc import (
    RemoteException,
    RpcClient,
    RpcRequest,
    RpcResponse,
    RpcService,
    RpcTimeout,
)

__all__ = [
    "Network",
    "Host",
    "Link",
    "Message",
    "FaultInjector",
    "CircuitBreaker",
    "BreakerConfig",
    "BreakerOpen",
    "BREAKER_STATES",
    "RetryPolicy",
    "RpcClient",
    "RpcService",
    "RpcRequest",
    "RpcResponse",
    "RpcTimeout",
    "RemoteException",
]
