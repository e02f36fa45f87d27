"""Grid service handles (GSH): location-bearing service names, and the
one client-side way to invoke an operation on the service behind one."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.util.errors import ProtocolError


@dataclass(frozen=True)
class GridServiceHandle:
    """Identifies a service instance: ``gsh://<host>/<port>/<service_id>``."""

    host: str
    port: str
    service_id: str

    def __str__(self) -> str:
        return f"gsh://{self.host}/{self.port}/{self.service_id}"

    @classmethod
    def parse(cls, text: str) -> "GridServiceHandle":
        """Parse the string form; raises :class:`ProtocolError` on junk."""
        prefix = "gsh://"
        if not text.startswith(prefix):
            raise ProtocolError(f"not a grid service handle: {text!r}")
        body = text[len(prefix):]
        parts = body.split("/", 2)
        if len(parts) != 3 or not all(parts):
            raise ProtocolError(f"malformed grid service handle: {text!r}")
        return cls(host=parts[0], port=parts[1], service_id=parts[2])


def invoke(rpc: Any, handle: GridServiceHandle, operation: str,
           params: dict[str, Any], *, credential: Any = None,
           **call_kwargs: Any) -> Generator[Any, Any, Any]:
    """Kernel process: run ``operation`` on the service behind ``handle``.

    The only place the container's ``invoke`` envelope is spelt; every
    client (NTCP, the repository façade, CHEF and NSDS subscribers) goes
    through here.  ``call_kwargs`` (``timeout``/``retries``/``ctx``) pass
    straight to :meth:`~repro.net.rpc.RpcClient.call`.
    """
    return rpc.call(handle.host, handle.port, "invoke",
                    {"service_id": handle.service_id, "operation": operation,
                     "params": params},
                    credential=credential, **call_kwargs)
