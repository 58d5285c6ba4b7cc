"""Typed error taxonomy of the serving surface.

Every failure a serving client can cause maps to exactly one exception type
here, and every type carries a **machine-readable code** plus the HTTP
status the wire layer answers with.  The taxonomy is part of the wire
contract: clients branch on ``error.code``, never on message text, so
messages can improve without breaking anyone.

Where it makes sense the types also subclass the builtin exception the
in-process layer historically raised (``QueryValidationError`` is a
``ValueError``, ``ModelNotFound`` is a ``LookupError``), so pre-existing
``except ValueError`` call sites keep working unchanged.
"""

from __future__ import annotations


class ServingError(Exception):
    """Base of the serving taxonomy; subclasses pin ``code`` + ``http_status``.

    ``details`` is an optional JSON-clean mapping merged into the wire form
    (e.g. ``retry_after`` for quota errors).
    """

    code = "internal_error"
    http_status = 500

    def __init__(self, message: str, details: dict | None = None) -> None:
        super().__init__(message)
        self.details = dict(details or {})

    @property
    def message(self) -> str:
        return str(self.args[0]) if self.args else self.code

    def to_wire(self) -> dict:
        """The JSON error envelope every non-2xx response carries."""
        error = {"code": self.code, "message": self.message}
        if self.details:
            error["details"] = self.details
        return {"error": error}


class QueryValidationError(ServingError, ValueError):
    """The request is malformed: bad query shape, unknown attribute, bad
    ``prefer``, unparseable body.  Also a ``ValueError`` for back-compat with
    in-process callers that predate the taxonomy."""

    code = "invalid_query"
    http_status = 400


class SchemaVersionError(QueryValidationError):
    """The payload declares a ``schema_version`` this server cannot speak."""

    code = "unsupported_schema_version"
    http_status = 400


class ModelNotFound(ServingError, LookupError):
    """No ``.ndpsyn`` file answers to the requested model name."""

    code = "model_not_found"
    http_status = 404


class AuthenticationError(ServingError):
    """The API key is missing or unknown (only raised by closed deployments —
    the default authenticator is open)."""

    code = "invalid_api_key"
    http_status = 401


class QuotaExceeded(ServingError):
    """The tenant's token bucket is empty; ``retry_after`` (seconds) says
    when one request's worth of tokens will have refilled."""

    code = "quota_exceeded"
    http_status = 429

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message, details={"retry_after": round(float(retry_after), 3)})

    @property
    def retry_after(self) -> float:
        return self.details["retry_after"]


class _RetryableServingError(ServingError):
    """Shared shape of the 5xx errors that carry a ``Retry-After`` hint.

    These are *transient, server-side* conditions: the request was valid,
    the server just cannot serve it right now.  Retrying is always safe —
    query answering is pure post-processing of published noisy marginals,
    so a resubmission spends no additional privacy budget.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message, details={"retry_after": round(float(retry_after), 3)})

    @property
    def retry_after(self) -> float:
        return self.details["retry_after"]


class ServiceOverloaded(_RetryableServingError):
    """Load shedding: the in-flight request cap is reached, and queueing
    further work would only grow tail latency.  Clients should back off
    ``retry_after`` seconds and resubmit."""

    code = "overloaded"
    http_status = 503


class ModelUnavailable(_RetryableServingError):
    """The model file exists but cannot be loaded right now (corrupt or
    mid-rewrite), and no previously-loaded generation is cached to fall back
    on.  Distinct from :class:`ModelNotFound` (no such file -> 404): the 503
    + ``Retry-After`` tells clients the condition is transient — typically
    an atomic re-deploy completing."""

    code = "model_unavailable"
    http_status = 503


class CircuitOpen(_RetryableServingError):
    """The engine circuit breaker is open (repeated engine faults) and the
    request could not be served from cache or the marginal-only degraded
    path.  ``retry_after`` is when the breaker will next admit a probe."""

    code = "circuit_open"
    http_status = 503


class EngineFaultError(ServingError):
    """Query execution failed server-side (an engine fault, not a client
    error).  Counted against the circuit breaker; safe to retry."""

    code = "engine_fault"
    http_status = 503


class RequestDeadlineExceeded(ServingError):
    """The request ran past its deadline (the service default or the
    client's ``X-Request-Deadline-Ms``).  The 504 is definitive: the answer
    was not delivered, though a retried identical query may well hit the
    answer cache."""

    code = "deadline_exceeded"
    http_status = 504


def error_from_exception(exc: BaseException) -> ServingError:
    """Coerce any exception into the taxonomy (for the wire boundary).

    Engine-level builtins raised during query handling map onto their typed
    equivalents; anything else becomes an opaque ``ServingError`` so a
    handler bug can never leak a traceback to a client.
    """
    # Imported here (not at module top) purely to keep this module's public
    # surface import-light; repro.reliability has no serving dependencies.
    from repro import reliability

    if isinstance(exc, ServingError):
        return exc
    if isinstance(exc, reliability.DeadlineExceeded):
        return RequestDeadlineExceeded(str(exc))
    if isinstance(exc, reliability.ReliabilityError):
        return EngineFaultError(f"{type(exc).__name__}: {exc}")
    if isinstance(exc, FileNotFoundError):
        return ModelNotFound(str(exc))
    if isinstance(exc, (KeyError, LookupError, ValueError, TypeError)):
        # KeyError reprs its argument; unwrap so messages read cleanly.
        message = str(exc.args[0]) if isinstance(exc, KeyError) and exc.args else str(exc)
        return QueryValidationError(message)
    return ServingError(f"{type(exc).__name__}: {exc}")
