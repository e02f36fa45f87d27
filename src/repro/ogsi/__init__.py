"""In-process OGSI-style grid service container.

The paper's services are "OGSI compliant Grid Services" hosted in the Globus
Toolkit 3 container, and the paper explicitly credits three OGSI mechanisms:
*service data elements* (each NTCP transaction is an SDE; a "most recently
changed" SDE supports whole-server monitoring), *soft-state lifetime
management*, and *state observation* via inspection.  This package rebuilds
that hosting environment over the simulated network:

* :class:`~repro.ogsi.sde.ServiceDataSet` — named, timestamped service data
  elements with change listeners;
* :class:`~repro.ogsi.service.GridService` — base class with operations,
  service data, and a termination time;
  :class:`~repro.ogsi.service.SdeStatusService` is the one-SDE status
  publisher built on it;
* :class:`~repro.ogsi.container.ServiceContainer` — hosts services behind
  grid service handles, dispatches RPC operations, runs the soft-state
  reaper, offers ``findServiceData``/``setTerminationTime``/factory/registry
  operations;
* :class:`~repro.ogsi.notification.SubscriptionTable` — the publisher side
  of every one-way push (SDE notifications, NSDS streams, camera frames):
  soft-state subscriptions owned by a service, validated on the way in,
  skipped once lapsed and freed at the next publish or with the service;
* :class:`~repro.ogsi.notification.NotificationSink` — the subscriber side
  of every one-way push (SDE change notifications here, NSDS datagrams
  and video frames through its two subclasses): a fresh port, a shape
  filter, counts, and one guard around the consumer ``callback``; it
  keeps no payloads;
* :func:`~repro.ogsi.handle.invoke` — the client side of the container's
  ``invoke`` method: ``yield from invoke(rpc, handle, operation, params)``.
"""

from repro.ogsi.sde import ServiceDataElement, ServiceDataSet
from repro.ogsi.service import GridService, SdeStatusService
from repro.ogsi.handle import GridServiceHandle, invoke
from repro.ogsi.container import ServiceContainer
from repro.ogsi.notification import NotificationSink, SubscriptionTable

__all__ = [
    "ServiceDataElement",
    "ServiceDataSet",
    "GridService",
    "SdeStatusService",
    "GridServiceHandle",
    "invoke",
    "ServiceContainer",
    "NotificationSink",
    "SubscriptionTable",
]
