"""The versioned wire protocol (DESIGN.md §13).

One codec for every front door: ``repro serve`` over stdin/stdout and
over TCP are both :class:`~repro.server.ServeServer` connections, which
decode requests and encode events through the functions here.

A *request* is one JSON object per line, wrapped in the v1 envelope::

    {"v": 1, "op": "submit", "id": "my-job", "n": 4,
     "terms": [[0, 0, -3], [0, 1, 2], [1, 1, -3]], "rounds": 5}

``v`` is the protocol version (this module speaks version 1), ``op``
selects the verb, ``id`` names the job (``submit``/``cancel``/``query``/
``attach``) or correlates a control reply (``stats``/``metrics``/...),
and the remaining keys are the op's parameters.  An *event* is one JSON
object per line the other way, always carrying ``v`` and ``event``;
``error`` and ``failed`` events additionally carry a structured ``code``
from :data:`ERROR_CODES`.

Ops: ``hello`` (declare a tenant), ``submit``, ``cancel``, ``query``
(job status snapshot), ``attach`` (re-subscribe to a job's event stream,
replaying what was missed), ``stats``, ``metrics`` (Prometheus text),
``drain``, ``shutdown``.

**Upload once.**  A ``submit`` carries its instance as a server-side
``file``, as inline ``n`` + ``terms``, or as ``"model": "<sha256 hex>"``:
the :func:`model_digest` of a model the server already holds because an
earlier ``terms`` upload decoded it.  The ``accepted`` event of a
``terms`` or ``model`` submit echoes the digest as ``"model"``.  A
digest the server does not hold (never uploaded, or since evicted) is
one :data:`E_UNKNOWN_MODEL` error; the client then sends the terms
again.  Both sides hash with :func:`model_digest` over the same
canonical triples (``model.triples()``) that a ``terms`` upload carries,
so a model and the model the server rebuilds from its terms hash equal.

Every frame must carry ``"v": 1``.  A frame without ``v`` (the pre-v1
shape) or with any other version is a :data:`E_VERSION_MISMATCH` error:
one structured ``error`` event, after which the connection serves the
next frame as usual.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ERROR_CODES",
    "KNOWN_OPS",
    "MAX_FRAME_BYTES",
    "MAX_TERMS_N",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Request",
    "decode_request",
    "encode_event",
    "encode_terms",
    "error_payload",
    "limit_kwargs",
    "load_model",
    "model_digest",
    "model_ref",
    "solver_fields",
    "submit_kwargs",
]

#: the protocol version this codec speaks
PROTOCOL_VERSION = 1

#: default per-frame byte budget; larger frames are rejected with
#: :data:`E_FRAME_TOO_LARGE` before JSON parsing (a 1 MiB line already
#: fits a dense inline QUBO of n ≈ 500)
MAX_FRAME_BYTES = 1 << 20

#: the largest ``n`` a ``terms`` submit may declare: the server builds
#: its dense ``n × n`` host matrix on the event-loop thread
MAX_TERMS_N = 1 << 14

#: weight magnitudes a ``terms`` upload may carry stay below this:
#: weights are summed in float64, which holds every smaller integer
_WEIGHT_BOUND = float(1 << 53)

# -- structured error codes -------------------------------------------------
E_BAD_JSON = "bad-json"
E_BAD_REQUEST = "bad-request"
E_UNKNOWN_OP = "unknown-op"
E_VERSION_MISMATCH = "version-mismatch"
E_FRAME_TOO_LARGE = "frame-too-large"
E_DUPLICATE_ID = "duplicate-id"
E_UNKNOWN_JOB = "unknown-job"
E_UNKNOWN_MODEL = "unknown-model"
E_OVERLOADED = "overloaded"
E_QUOTA_EXCEEDED = "quota-exceeded"
E_RATE_LIMITED = "rate-limited"
E_JOB_FAILED = "job-failed"
E_INTERNAL = "internal"

ERROR_CODES = frozenset(
    {
        E_BAD_JSON,
        E_BAD_REQUEST,
        E_UNKNOWN_OP,
        E_VERSION_MISMATCH,
        E_FRAME_TOO_LARGE,
        E_DUPLICATE_ID,
        E_UNKNOWN_JOB,
        E_UNKNOWN_MODEL,
        E_OVERLOADED,
        E_QUOTA_EXCEEDED,
        E_RATE_LIMITED,
        E_JOB_FAILED,
        E_INTERNAL,
    }
)

KNOWN_OPS = frozenset(
    {
        "hello",
        "submit",
        "cancel",
        "query",
        "attach",
        "stats",
        "metrics",
        "drain",
        "shutdown",
    }
)

#: envelope keys that are not op parameters
_ENVELOPE_KEYS = frozenset({"v", "op", "id"})


class ProtocolError(ValueError):
    """A request that violates the wire protocol; ``code`` is one of
    :data:`ERROR_CODES` and ``message`` is the human-readable detail."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        assert code in ERROR_CODES, code
        self.code = code


@dataclass(frozen=True)
class Request:
    """One decoded request frame."""

    #: the verb (always a member of :data:`KNOWN_OPS`)
    op: str
    #: the client's job id / correlation id (``None`` when omitted)
    id: str | None
    #: the op's parameters (envelope keys stripped)
    params: dict = field(default_factory=dict)


def decode_request(
    line: str | bytes, *, max_bytes: int = MAX_FRAME_BYTES
) -> Request:
    """Decode one request line; raises :class:`ProtocolError` on any
    violation (oversize frame, bad JSON, bad envelope, unknown op,
    version mismatch)."""
    raw = line.encode("utf-8") if isinstance(line, str) else line
    if len(raw) > max_bytes:
        raise ProtocolError(
            E_FRAME_TOO_LARGE,
            f"frame of {len(raw)} bytes exceeds the {max_bytes}-byte limit",
        )
    try:
        payload = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(E_BAD_JSON, f"bad JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            E_BAD_REQUEST, f"request must be a JSON object, got {type(payload).__name__}"
        )
    if "v" not in payload:
        raise ProtocolError(
            E_VERSION_MISMATCH,
            f'request has no "v" envelope key '
            f"(this server speaks v{PROTOCOL_VERSION})",
        )
    version = payload["v"]
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            E_VERSION_MISMATCH,
            f"unsupported protocol version {version!r} "
            f"(this server speaks v{PROTOCOL_VERSION})",
        )
    op = payload.get("op")
    if not isinstance(op, str):
        raise ProtocolError(E_BAD_REQUEST, 'request needs a string "op"')
    if op not in KNOWN_OPS:
        raise ProtocolError(E_UNKNOWN_OP, f"unknown op {op!r}")
    request_id = payload.get("id")
    if request_id is not None and not isinstance(request_id, (str, int)):
        raise ProtocolError(E_BAD_REQUEST, '"id" must be a string')
    params = {k: v for k, v in payload.items() if k not in _ENVELOPE_KEYS}
    return Request(
        op=op,
        id=str(request_id) if request_id is not None else None,
        params=params,
    )


def encode_event(payload: dict) -> str:
    """Serialize one event dict into its wire line (envelope added)."""
    return json.dumps({"v": PROTOCOL_VERSION, **payload})


def error_payload(code: str, message: str, **fields) -> dict:
    """Build a structured ``error`` event body."""
    assert code in ERROR_CODES, code
    return {"event": "error", "code": code, "error": message, **fields}


# -- shared submit semantics ------------------------------------------------

def model_digest(model) -> str:
    """SHA-256 hex digest naming *model* on the wire (the ``model`` field).

    Hashes ``n``, the dtype and the model's canonical ``triples()`` —
    the triples a ``terms`` upload carries — so the client's model and
    the one the server rebuilds from its upload hash equal.  A
    :class:`~repro.core.sparse.SparseQUBOModel` and its dense twin hash
    equal too.
    """
    rows, cols, weights = model.triples()
    digest = hashlib.sha256(f"{model.n}:{weights.dtype.str}:{len(weights)}".encode())
    for arr in (rows, cols, weights):
        digest.update(arr.tobytes())
    return digest.hexdigest()


def encode_terms(model) -> dict:
    """The ``n``/``terms``/``name`` fields of a submit uploading *model*.

    The terms are the model's canonical ``triples()``, byte-identical on
    the wire to the ``sorted(model.to_dict().items())`` encoding: Python
    ints for integer models, floats for float ones.
    """
    rows, cols, weights = model.triples()
    if np.issubdtype(weights.dtype, np.integer):
        terms = np.column_stack((rows, cols, weights)).tolist()
    else:
        terms = [list(t) for t in zip(rows.tolist(), cols.tolist(), weights.tolist())]
    fields = {"n": model.n, "terms": terms}
    if getattr(model, "name", ""):
        fields["name"] = model.name
    return fields


def model_ref(params: dict) -> str | None:
    """The digest a submit names in ``"model"``, or None for an upload.

    A ``model`` submit carries no instance of its own: ``model`` together
    with ``terms`` or ``file`` is one :data:`E_BAD_REQUEST`.
    """
    digest = params.get("model")
    if digest is None:
        return None
    if not isinstance(digest, str):
        raise ProtocolError(E_BAD_REQUEST, '"model" must be a digest string')
    if "terms" in params or "file" in params:
        raise ProtocolError(
            E_BAD_REQUEST, 'a submit names "model" or sends "terms"/"file", not both'
        )
    return digest


def _decode_terms(terms, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate a ``terms`` list into ``(rows, cols, weights)`` arrays."""
    bad = '"terms" must be a list of numeric [i, j, w] triples'
    try:
        arr = np.asarray(terms)
    except (TypeError, ValueError):  # ragged entries
        raise ProtocolError(E_BAD_REQUEST, bad) from None
    if arr.shape == (0,) and isinstance(terms, list):
        arr = np.zeros((0, 3))
    if arr.ndim != 2 or arr.shape[1] != 3 or arr.dtype.kind not in "iuf":
        raise ProtocolError(E_BAD_REQUEST, bad)
    weights = arr[:, 2].astype(np.float64)
    if not np.all(np.abs(weights) < _WEIGHT_BOUND):  # also NaN/inf
        raise ProtocolError(E_BAD_REQUEST, "term weights must be finite, of magnitude < 2**53")
    index = arr[:, :2]
    if index.dtype.kind == "f" and not np.all(index == np.rint(index)):
        raise ProtocolError(E_BAD_REQUEST, "term indices must be integers")
    if not np.all((index >= 0) & (index < n)):
        raise ProtocolError(E_BAD_REQUEST, f"term index out of range for n={n}")
    index = index.astype(np.intp)
    return index[:, 0], index[:, 1], weights


def load_model(params: dict):
    """Materialize a submit's instance (``file`` or inline ``n``+``terms``).

    A file path and an inline triple list mean exactly the same thing
    over stdin and TCP.  Terms decode in one ``np.asarray``; duplicates
    ``(i, j)`` and mirrors ``(j, i)`` accumulate (``np.add.at``) as in
    :meth:`~repro.core.qubo.QUBOModel.from_dict`.  A non-integer ``n``,
    ragged or non-numeric entries, non-integral or out-of-range indices
    and weights that are not finite or not below 2**53 in magnitude are
    one :data:`E_BAD_REQUEST`.
    """
    from repro.core.qubo import QUBOModel
    from repro.io.formats import load_instance

    if "file" in params:
        model, _ = load_instance(params["file"], params.get("format", "auto"))
        return model
    if "terms" in params:
        n = _int_field(params, "n", minimum=1, maximum=MAX_TERMS_N)
        rows, cols, weights = _decode_terms(params["terms"], n)
        matrix = np.zeros((n, n))
        np.add.at(matrix, (rows, cols), weights)
        return QUBOModel(matrix, name=str(params.get("name", "")))
    raise ProtocolError(E_BAD_REQUEST, 'submit needs "file" or "n"+"terms"')


def solver_fields(params: dict) -> tuple[str, bool]:
    """A submit's ``solver`` (``"dabs"``, the default, or ``"abs"``) and
    ``virtual_time`` (a JSON bool, default false); any other value is one
    :data:`E_BAD_REQUEST`, never a solver or schedule not asked for."""
    solver = params.get("solver", "dabs")
    if solver not in ("dabs", "abs"):
        raise ProtocolError(E_BAD_REQUEST, f'"solver" must be "dabs" or "abs", got {solver!r}')
    virtual_time = params.get("virtual_time", False)
    if not isinstance(virtual_time, bool):
        raise ProtocolError(E_BAD_REQUEST, f'"virtual_time" must be a bool, got {virtual_time!r}')
    return solver, virtual_time


def _int_field(
    params: dict, name: str, minimum: int | None = None, maximum: int | None = None
) -> int:
    """A submit's integer field: a JSON integer or an integral float,
    never a bool, truncated float or string; anything else (a missing
    field, or a value outside *minimum*..*maximum*) is one
    :data:`E_BAD_REQUEST`."""
    value = params.get(name)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if (
        type(value) is not int
        or (minimum is not None and value < minimum)
        or (maximum is not None and value > maximum)
    ):
        if maximum is not None:
            bound = f" in [{minimum}, {maximum}]"
        else:
            bound = "" if minimum is None else f" >= {minimum}"
        raise ProtocolError(E_BAD_REQUEST, f'"{name}" must be an integer{bound}, got {value!r}')
    return value


def _number_field(params: dict, name: str) -> float:
    """A submit's numeric field: a JSON number, never a bool or string
    (the range is the service's to check); else one :data:`E_BAD_REQUEST`."""
    value = params[name]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(E_BAD_REQUEST, f'"{name}" must be a number, got {value!r}')
    return float(value)


def limit_kwargs(params: dict) -> dict:
    """Map a submit's wire limit fields onto ``SolveService.submit``
    keyword arguments (defaulting to a 20-round budget, as the solve CLI
    does)."""
    kwargs: dict = {}
    if "target" in params:
        kwargs["target_energy"] = _int_field(params, "target")
    if "time_limit" in params:
        kwargs["time_limit"] = _number_field(params, "time_limit")
    if "rounds" in params:
        kwargs["max_rounds"] = _int_field(params, "rounds")
    if "launches" in params:
        kwargs["max_launches"] = _int_field(params, "launches")
    if not kwargs:
        kwargs["max_rounds"] = 20
    return kwargs


def submit_kwargs(params: dict) -> dict:
    """Map a submit's scheduling fields (seed, devices, priority, share)
    onto ``SolveService.submit`` keyword arguments; a ``seed`` must be a
    non-negative integer."""
    kwargs: dict = {"seed": None, "devices": None, "priority": 0, "share": 1.0}
    if params.get("seed") is not None:
        kwargs["seed"] = _int_field(params, "seed", minimum=0)
    if params.get("devices") is not None:
        kwargs["devices"] = _int_field(params, "devices")
    if "priority" in params:
        kwargs["priority"] = _int_field(params, "priority")
    if "share" in params:
        kwargs["share"] = _number_field(params, "share")
    return kwargs
