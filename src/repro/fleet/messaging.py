"""Fleet wire protocol: versioned JSON envelopes over authenticated pipes.

Every message the coordinator and its workers exchange is one
:class:`Envelope` — a flat, versioned JSON object sent with
``Connection.send_bytes`` over a :mod:`multiprocessing.connection` channel
(which already gives us length-prefixed framing and an HMAC-authenticated
handshake via ``authkey``).  ``LocalCluster`` forks every worker on its own
host, so the channel is an ``AF_UNIX`` socket; the envelopes themselves are
transport-agnostic.  Keeping the control plane pure JSON makes the
protocol inspectable; the values that are *not* JSON-shaped are pickled
and base64-embedded (:func:`pack_value`), and none of them is bulky:

- **task arguments** (a few hundred bytes: the shard size, its pre-spawned
  ``SeedSequence``-child generators, the kernel name) ride in ``assign``;
- **results** ride in ``complete`` as the worker's
  :func:`~repro.engine.shm.export_result` form: a shard's decoded table is a
  shared-memory descriptor (segment name, slot offsets, dictionaries), and
  only values under :data:`~repro.engine.shm.SHM_MIN_BYTES` travel whole;
- **the shared payload** (the :class:`~repro.engine.SynthesisPlan`, or a
  fit's encoded matrix) never rides an envelope.  A worker forked while
  it was bound (``LocalCluster.private``) inherits it, and ``assign`` says
  ``"shared": "inherited"``; otherwise it is pickled once into the
  coordinator's spool directory and ``assign`` carries the path.

Determinism contract: an ``assign`` envelope never *chooses* randomness —
the task tuple carries the shard's own ``SeedSequence`` children, fixed when
the release was sharded (see :mod:`repro.fleet.queue`).  Which worker runs a
shard, in what order, after how many reassignments, therefore cannot change
a single output byte.  :func:`seed_spec` / :func:`seed_from_spec` are the
JSON rendering of that contract: a spawned child is fully reconstructible
from ``(entropy, spawn_key)``, so the seed assignment itself can be
published in the release announcement and audited from the wire log alone.

Message types
-------------

=============  =========  ====================================================
type           direction  payload
=============  =========  ====================================================
``register``   w -> c     ``pid``, ``role`` (``"sampler"``/``"serving"``),
                          ``url`` (serving replicas only)
``welcome``    c -> w     ``worker_id`` echo, ``heartbeat_interval``
``heartbeat``  w -> c     (empty)
``assign``     c -> w     ``release``, ``index``, ``fn_module``, ``fn_name``,
                          ``shared`` (``null``, ``"inherited"`` or a spool
                          path), ``task`` (packed)
``complete``   w -> c     ``release``, ``index``, ``result`` (packed export)
``failed``     w -> c     ``release``, ``index``, ``error``, ``traceback``,
                          ``exception`` (packed, when it pickles)
``shutdown``   c -> w     (empty)
=============  =========  ====================================================
"""

from __future__ import annotations

import base64
import json
import pickle
from dataclasses import dataclass, field

import numpy as np

#: Version stamp carried by every envelope; receivers reject foreign
#: versions instead of guessing (mirrors the serving tier's
#: ``schema_version`` discipline).
FLEET_SCHEMA_VERSION = 1

MSG_REGISTER = "register"
MSG_WELCOME = "welcome"
MSG_HEARTBEAT = "heartbeat"
MSG_ASSIGN = "assign"
MSG_COMPLETE = "complete"
MSG_FAILED = "failed"
MSG_SHUTDOWN = "shutdown"

MESSAGE_TYPES = (
    MSG_REGISTER,
    MSG_WELCOME,
    MSG_HEARTBEAT,
    MSG_ASSIGN,
    MSG_COMPLETE,
    MSG_FAILED,
    MSG_SHUTDOWN,
)

#: ``assign``'s ``shared`` value for the payload a worker inherited at fork.
SHARED_INHERITED = "inherited"

#: Worker roles a ``register`` envelope may announce.
ROLE_SAMPLER = "sampler"
ROLE_SERVING = "serving"


class EnvelopeError(ValueError):
    """A wire frame that is not a valid fleet envelope."""


@dataclass(frozen=True)
class Envelope:
    """One fleet control-plane message.

    ``sender`` is the worker id (or ``"coordinator"``); ``seq`` is the
    sender's own monotonically increasing message counter, carried for
    observability (ordering is already guaranteed per connection).
    """

    type: str
    sender: str
    seq: int = 0
    payload: dict = field(default_factory=dict)
    version: int = FLEET_SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.type not in MESSAGE_TYPES:
            raise EnvelopeError(
                f"message type must be one of {MESSAGE_TYPES}, got {self.type!r}"
            )


def encode_envelope(envelope: Envelope) -> bytes:
    """Render an envelope as UTF-8 JSON bytes for ``send_bytes``."""
    return json.dumps(
        {
            "version": envelope.version,
            "type": envelope.type,
            "sender": envelope.sender,
            "seq": envelope.seq,
            "payload": envelope.payload,
        },
        separators=(",", ":"),
    ).encode("utf-8")


def decode_envelope(raw: bytes) -> Envelope:
    """Parse and validate one wire frame; reject foreign versions."""
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise EnvelopeError(f"frame is not UTF-8 JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise EnvelopeError(f"envelope must be a JSON object, got {type(obj).__name__}")
    version = obj.get("version")
    if version != FLEET_SCHEMA_VERSION:
        raise EnvelopeError(
            f"unsupported fleet schema version {version!r} "
            f"(this node speaks {FLEET_SCHEMA_VERSION})"
        )
    payload = obj.get("payload", {})
    if not isinstance(payload, dict):
        raise EnvelopeError("envelope payload must be a JSON object")
    return Envelope(
        type=str(obj.get("type")),
        sender=str(obj.get("sender", "")),
        seq=int(obj.get("seq", 0)),
        payload=payload,
    )


# --------------------------------------------------------------- seed specs
def seed_spec(seq: np.random.SeedSequence) -> dict:
    """The JSON form of a spawned ``SeedSequence``: ``(entropy, spawn_key)``.

    A spawned child is a pure function of these two fields, so a release
    announcement carrying one spec per shard pins the entire RNG tree on the
    wire — any node can reconstruct any shard's generator, and the digest
    contract can be audited without trusting pickled bytes.
    """
    entropy = seq.entropy
    if isinstance(entropy, (list, tuple)):
        entropy = [int(word) for word in entropy]
    elif entropy is not None:
        entropy = int(entropy)
    return {"entropy": entropy, "spawn_key": [int(k) for k in seq.spawn_key]}


def seed_from_spec(spec: dict) -> np.random.SeedSequence:
    """Rebuild the exact ``SeedSequence`` a :func:`seed_spec` described."""
    return np.random.SeedSequence(
        entropy=spec["entropy"], spawn_key=tuple(spec["spawn_key"])
    )


# ----------------------------------------------------------- binary embeds
def pack_value(value) -> str:
    """Base64-embed one small picklable value (task, result, exception)."""
    return base64.b64encode(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)).decode(
        "ascii"
    )


def unpack_value(packed: str):
    """Inverse of :func:`pack_value`."""
    return pickle.loads(base64.b64decode(packed.encode("ascii")))
