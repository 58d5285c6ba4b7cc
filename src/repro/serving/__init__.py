"""DP query serving over fitted models (post-processing — zero extra budget).

The serving layer is the tier users actually hit in a deployed NetDPSyn
system: a :class:`ModelRegistry` keeps ``.ndpsyn`` model files hot (LRU with
a byte budget, thread-safe, hot-reload on file change, per-model generation
counter) and a :class:`QueryEngine` answers a typed query algebra
(:func:`count`, :func:`marginal`, :func:`topk`, :func:`histogram`, each with
optional filters) — preferring exact reads off the published noisy marginals
and falling back to a bounded-memory cached synthetic sample, with
per-answer provenance.

On top of that sits the network-facing tier: :class:`QueryService`
(micro-batching over ``run_batch`` with no collection window — the next
batch is whatever arrived during the previous one — generation-keyed answer
cache, per-tenant auth/quota), the versioned wire schemas
(:func:`query_to_wire` / :func:`answer_from_wire`, ``SCHEMA_VERSION``), the
typed error taxonomy (:class:`ServingError` and friends, each with a
machine-readable code and an HTTP status), and the stdlib HTTP transport in
:mod:`repro.serving.http` (``serve-http`` CLI).  See ``docs/serving.md``.

``tests/test_exports.py`` audits ``__all__`` — update both together.
"""

from repro.serving.engine import (
    DEFAULT_SAMPLE_RECORDS,
    QueryEngine,
    bin_labels,
)
from repro.serving.errors import (
    AuthenticationError,
    CircuitOpen,
    EngineFaultError,
    ModelNotFound,
    ModelUnavailable,
    QueryValidationError,
    QuotaExceeded,
    RequestDeadlineExceeded,
    SchemaVersionError,
    ServiceOverloaded,
    ServingError,
)
from repro.serving.queries import (
    PROVENANCE_MARGINAL,
    PROVENANCE_SAMPLE,
    Prefer,
    Query,
    QueryAnswer,
    answers_equal,
    count,
    histogram,
    marginal,
    topk,
)
from repro.serving.registry import (
    DEFAULT_BYTE_BUDGET,
    MODEL_SUFFIX,
    ModelRegistry,
    RegistryStats,
)
from repro.serving.schemas import (
    SCHEMA_VERSION,
    answer_from_wire,
    answer_to_wire,
    query_from_wire,
    query_to_wire,
)
from repro.serving.service import (
    AnswerCache,
    ApiKeyAuth,
    MicroBatcher,
    OpenAccess,
    QueryService,
    ServiceConfig,
    Tenant,
    TokenBucket,
)

__all__ = [
    "AnswerCache",
    "ApiKeyAuth",
    "AuthenticationError",
    "CircuitOpen",
    "DEFAULT_BYTE_BUDGET",
    "DEFAULT_SAMPLE_RECORDS",
    "EngineFaultError",
    "MODEL_SUFFIX",
    "MicroBatcher",
    "ModelNotFound",
    "ModelRegistry",
    "ModelUnavailable",
    "OpenAccess",
    "PROVENANCE_MARGINAL",
    "PROVENANCE_SAMPLE",
    "Prefer",
    "Query",
    "QueryAnswer",
    "QueryEngine",
    "QueryService",
    "QueryValidationError",
    "QuotaExceeded",
    "RegistryStats",
    "RequestDeadlineExceeded",
    "SCHEMA_VERSION",
    "SchemaVersionError",
    "ServiceConfig",
    "ServiceOverloaded",
    "ServingError",
    "Tenant",
    "TokenBucket",
    "answer_from_wire",
    "answer_to_wire",
    "answers_equal",
    "bin_labels",
    "count",
    "histogram",
    "marginal",
    "query_from_wire",
    "query_to_wire",
    "topk",
]
