"""The serving wire contract: request checks, the error table, payloads.

The single-process :class:`~repro.serve.http.ServeHandler`, the cluster
gateway and the shard worker all answer through this module, so a
request gets the same status and body whichever of them serves it:

* the request checks, in the order the front ends apply them:
  :func:`body_length`, :func:`route`, :func:`deadline_ms`,
  :func:`json_body`, then :func:`parse_request` or :func:`ingest_batch`;
* the error table: :func:`failure` maps an exception to a
  :class:`WireError`, which renders both the HTTP reply and the shard
  reply frame;
* what a shard answers as the single-process server does:
  :func:`query`, :func:`health` and :func:`snapshot`.

``docs/SERVING.md`` documents the status table.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Iterable
from urllib.parse import parse_qs

from repro.resilience.deadline import DeadlineExceeded, deadline_scope
from repro.serve.admission import Overloaded
from repro.serve.breaker import CircuitOpen
from repro.serve.engine import (
    EngineClosed,
    EngineDraining,
    InvalidRequest,
    NarrowRequest,
    SelectionEngine,
    SelectRequest,
)
from repro.serve.health import DRAINING
from repro.serve.jitter import RetryJitter
from repro.serve.metrics import MetricsRegistry
from repro.serve.store import (
    CorpusValidationError,
    DeltaValidationError,
    ReloadInProgress,
    UnknownTargetError,
    UnviableTargetError,
)

#: The largest request body a front end reads; a larger one is a 413.
MAX_BODY_BYTES = 64 * 1024 * 1024

JSON_TYPE = "application/json"
PROMETHEUS_TYPE = "text/plain; version=0.0.4"

#: The method each endpoint answers.  An endpoint is named by its
#: path's last segment (``/v1/select`` is ``select``).
_METHODS = {
    "/healthz": "GET",
    "/metrics": "GET",
    "/v1/select": "POST",
    "/v1/narrow": "POST",
    "/v1/reload": "POST",
    "/v1/ingest": "POST",
    "/v1/snapshot": "POST",
}


class WireError(Exception):
    """An error reply: status, message, retry hint and extra body fields.

    :meth:`reply` renders it for HTTP and :meth:`frame` for a shard
    reply, which :meth:`from_frame` reads back for the gateway to relay.
    """

    def __init__(
        self,
        status: int,
        message: str,
        *,
        retry_after: float | None = None,
        extra: dict | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after
        self.extra = extra

    @classmethod
    def from_frame(cls, frame: dict, **extra: object) -> "WireError":
        """The error a shard reply frame carries, with ``extra`` added."""
        return cls(
            frame.get("status", 503),
            str(frame.get("error", "shard error")),
            retry_after=frame.get("retry_after"),
            extra={**(frame.get("extra") or {}), **extra},
        )

    def frame(self) -> dict:
        """``{"status", "error", "retry_after"?, "extra"?}``."""
        frame: dict[str, object] = {"status": self.status, "error": str(self)}
        if self.retry_after is not None:
            frame["retry_after"] = self.retry_after
        if self.extra:
            frame["extra"] = self.extra
        return frame

    def reply(
        self, metrics: MetricsRegistry
    ) -> tuple[int, dict, dict[str, str] | None]:
        """``(status, JSON body, headers)``, counted in ``metrics``."""
        metrics.counter(
            "repro_http_errors_total", "error responses by status",
            labels={"status": str(self.status)},
        ).inc()
        payload: dict[str, object] = {"error": str(self), "status": self.status}
        headers = None
        if self.retry_after is not None:
            # The header wants integer seconds (RFC 9110); the body keeps
            # the precise hint for clients that parse JSON.
            headers = {"Retry-After": str(max(1, math.ceil(self.retry_after)))}
            payload["retry_after"] = round(self.retry_after, 3)
        if self.extra:
            payload.update(self.extra)
        return self.status, payload, headers


class BadRequest(WireError):
    """A malformed request (400): framing, header, body or field types."""

    def __init__(self, message: str) -> None:
        super().__init__(400, message)


# -- request checks ----------------------------------------------------------


def body_length(raw: str | None) -> int:
    """The announced ``Content-Length``: 400 if unreadable, 413 if too big.

    Either error leaves the body unread, so the front end answers and
    then closes the connection.
    """
    if raw is None:
        return 0
    try:
        length = int(raw)
    except ValueError:
        length = -1
    if length < 0:
        raise BadRequest(f"invalid Content-Length: {raw!r}")
    if length > MAX_BODY_BYTES:
        raise WireError(
            413, f"body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        )
    return length


def route(method: str, path: str) -> str:
    """The endpoint a request names; 405 for a wrong method, 404 unknown."""
    if method not in ("GET", "POST"):
        raise WireError(405, f"method {method} is not supported")
    wanted = _METHODS.get(path)
    if wanted is None:
        raise WireError(404, f"unknown endpoint {path!r}")
    if method != wanted:
        raise WireError(405, f"{path} requires {wanted}")
    return path.rpartition("/")[2]


def deadline_ms(raw: object) -> float | None:
    """``X-Deadline-Ms``, or a shard frame's ``deadline_ms``.

    Only positive, finite milliseconds: ``nan`` would expire at once and
    ``inf`` would overflow the gateway's shard timeout.
    """
    if raw is None:
        return None
    try:
        if isinstance(raw, bool):
            raise TypeError(raw)
        value = float(raw)
    except (TypeError, ValueError):
        raise BadRequest(f"X-Deadline-Ms must be a number, got {raw!r}") from None
    if value <= 0:
        raise BadRequest(f"X-Deadline-Ms must be positive, got {raw!r}")
    if not math.isfinite(value):
        raise BadRequest(f"X-Deadline-Ms must be finite, got {raw!r}")
    return value


def json_body(raw: bytes) -> dict:
    """A POST body: a JSON object, with no body meaning ``{}``."""
    try:
        body = json.loads(raw or b"{}")
    except (ValueError, RecursionError) as exc:
        # ValueError covers bytes that are not UTF-8 as well as bad JSON;
        # RecursionError is nesting too deep for the decoder.
        raise BadRequest(f"invalid JSON body: {exc}") from None
    if not isinstance(body, dict):
        raise BadRequest("request body must be a JSON object")
    return body


def only_fields(body: dict, allowed: Iterable[str]) -> None:
    """400 when ``body`` names a field outside ``allowed``."""
    unknown = sorted(set(body) - set(allowed))
    if unknown:
        raise BadRequest(f"unknown fields: {unknown}")


_NUMBER = (int, float)
_SELECT_FIELDS: dict[str, tuple[type, ...]] = {
    "target": (str, type(None)),
    "m": (int,),
    "lam": _NUMBER,
    "mu": _NUMBER,
    "scheme": (str,),
    "algorithm": (str,),
    "max_comparisons": (int,),
    "min_reviews": (int,),
}
_NARROW_FIELDS: dict[str, tuple[type, ...]] = {
    **_SELECT_FIELDS,
    "k": (int,),
    "time_limit": _NUMBER,
    "stages": (list,),
}


def parse_request(body: dict, narrow: bool) -> SelectRequest:
    """The typed select/narrow request; wrong shapes are 400s."""
    fields = _NARROW_FIELDS if narrow else _SELECT_FIELDS
    only_fields(body, fields)
    kwargs: dict[str, object] = {}
    for name, value in body.items():
        expected = fields[name]
        if isinstance(value, bool) or not isinstance(value, expected):
            names = "/".join(t.__name__ for t in expected)
            raise BadRequest(f"field {name!r} must be {names}")
        kwargs[name] = value
    if "stages" in kwargs:
        stages = kwargs["stages"]
        if not all(isinstance(stage, str) for stage in stages):
            raise BadRequest("field 'stages' must be a list of strings")
        kwargs["stages"] = tuple(stages)
    if narrow:
        return NarrowRequest(**kwargs)
    return SelectRequest(**kwargs)


def review_batch(reviews: object) -> list[dict]:
    """An ingest batch, from a body or a shard frame: a list of objects."""
    if not isinstance(reviews, list) or not reviews:
        raise BadRequest(
            "field 'reviews' (a non-empty list of review objects) is required"
        )
    if not all(isinstance(entry, dict) for entry in reviews):
        raise BadRequest("every entry in 'reviews' must be an object")
    return reviews


def ingest_batch(body: dict) -> list[dict]:
    """The review batch of an ``/v1/ingest`` body."""
    only_fields(body, ("reviews",))
    return review_batch(body.get("reviews"))


def metrics_as_text(url_query: str, accept: str) -> bool:
    """Whether ``/metrics`` answers in the Prometheus text format."""
    return (
        parse_qs(url_query).get("format", [""])[0] == "prometheus"
        or "text/plain" in accept
    )


# -- the error table ---------------------------------------------------------


def failure(
    exc: BaseException, endpoint: str | None, jitter: RetryJitter
) -> WireError:
    """The error reply for ``exc`` raised while serving ``endpoint``.

    Rows are tried in order; the first match wins.  Only the
    ``TypeError``, ``OSError`` and snapshot rows read ``endpoint``;
    ``jitter`` spreads the retry hints so clients do not return in a herd.
    """
    if isinstance(exc, WireError):
        return exc
    if isinstance(exc, DeltaValidationError):
        # A review id the store already holds conflicts with its state.
        return WireError(409 if exc.conflict else 400, str(exc))
    if isinstance(exc, (ReloadInProgress, CorpusValidationError)):
        return WireError(409, str(exc))
    if isinstance(exc, TypeError) and endpoint in ("select", "narrow"):
        return WireError(400, str(exc))
    if isinstance(exc, (InvalidRequest, UnknownTargetError, UnviableTargetError)):
        return WireError(422, str(exc))
    if isinstance(exc, Overloaded):
        return WireError(
            429, str(exc), retry_after=exc.retry_after,
            extra={"reason": exc.reason},
        )
    if isinstance(exc, EngineDraining):
        return WireError(503, str(exc), retry_after=jitter.apply(1.0))
    if isinstance(exc, CircuitOpen):
        # Every usable backend is breaker-open: retry around the
        # breaker's recovery window.
        return WireError(
            503, str(exc), retry_after=jitter.apply(5.0),
            extra={"reason": "circuit_open"},
        )
    if isinstance(exc, (DeadlineExceeded, EngineClosed)):
        return WireError(503, str(exc))
    if endpoint == "ingest" and isinstance(exc, OSError):
        # The log append failed (disk full, IO error): the delta was
        # neither applied nor acked, so a retry is safe.
        return WireError(
            503, f"cannot persist delta: {exc}",
            retry_after=jitter.apply(2.0), extra={"reason": "wal_unavailable"},
        )
    if endpoint == "snapshot" and isinstance(exc, OSError):
        return WireError(
            503, f"snapshot failed: {exc}", retry_after=jitter.apply(2.0)
        )
    if endpoint == "snapshot" and isinstance(exc, RuntimeError):
        # No state dir: there is nothing to snapshot into.
        return WireError(409, str(exc))
    return WireError(500, f"{type(exc).__name__}: {exc}")


# -- what a shard answers as the single-process server does ------------------


def query(
    engine: SelectionEngine, endpoint: str, body: dict, deadline: float | None
) -> dict:
    """Serve a select or narrow body under a ``deadline`` in ms."""
    request = parse_request(body, endpoint == "narrow")
    with deadline_scope(None if deadline is None else deadline / 1e3):
        if endpoint == "narrow":
            return engine.narrow(request).as_dict()
        return engine.select(request).as_dict()


def health(engine: SelectionEngine, started_at: float) -> tuple[int, dict]:
    """``/healthz`` of one engine: its status code and payload."""
    view = engine.health.view()
    state = view["state"]
    payload: dict[str, object] = {
        # "ok" is the legacy healthy value (smoke tests and probes grep
        # for it); degraded/draining name the state.
        "status": "ok" if state == "healthy" else state,
        "corpus_version": engine.store.version,
        "uptime_seconds": round(time.monotonic() - started_at, 3),
        "inflight": engine.admission.inflight,
    }
    if "reasons" in view:
        payload["reasons"] = view["reasons"]
    if engine.recovery is not None:
        # Recovery provenance: how this process rebuilt its state
        # (snapshot/WAL modes, replay counts, supervisor restarts).
        payload["recovery"] = engine.recovery.as_dict()
    # Draining answers 503 so load balancers and the gateway stop routing
    # here while in-flight requests finish.  Recovering stays 200: the
    # engine is serving, just rebuilding warmth.
    return (503 if state == DRAINING else 200), payload


def snapshot(engine: SelectionEngine) -> dict:
    """Write a generation snapshot now; the ``/v1/snapshot`` payload."""
    info = engine.snapshot()
    return {
        "path": str(info.path),
        "version": info.version,
        "wal_seq": info.wal_seq,
        "artifacts": info.artifacts,
    }
