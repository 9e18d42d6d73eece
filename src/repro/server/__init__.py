"""Network-grade serving (DESIGN.md §13).

The deployable front door of the solve service: a versioned JSON-lines
wire protocol (:mod:`repro.server.protocol`), one asyncio server
multiplexing persistent client connections — TCP sockets, or the
process's stdin/stdout — over one :class:`~repro.service.SolveService`
or :class:`~repro.federation.Federation`
(:mod:`repro.server.server`), per-tenant quotas and token-bucket rate
limits (:mod:`repro.server.quota`), and a Prometheus-style ``/metrics``
exporter (:mod:`repro.server.metrics`).

The matching client SDK is :class:`repro.client.Client`.
"""

from repro.server.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    decode_request,
    encode_event,
    error_payload,
)
from repro.server.quota import TenantQuota, TokenBucket
from repro.server.server import ServeServer

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Request",
    "ServeServer",
    "TenantQuota",
    "TokenBucket",
    "decode_request",
    "encode_event",
    "error_payload",
]
