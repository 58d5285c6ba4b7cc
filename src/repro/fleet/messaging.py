"""Fleet wire protocol: pickled ``(type, payload)`` messages on authenticated pipes.

Every message the coordinator and its workers exchange is one
``(type, payload)`` tuple — ``type`` one of the names below, ``payload`` a
dict — sent with ``Connection.send`` and read with ``Connection.recv`` over
a :mod:`multiprocessing.connection` channel, which gives length-prefixed
framing and an HMAC-authenticated handshake via the cluster's ``authkey``.
``LocalCluster`` forks every worker on its own host, so the channel is an
``AF_UNIX`` socket.  Only a peer holding the ``authkey`` gets to send a
frame, and the coordinator unpickles what such a peer sends — the same
trust it already extends to the tasks, results and exceptions inside.
None of the values is bulky:

- **task arguments** (a few hundred bytes: the shard size, its pre-spawned
  ``SeedSequence``-child generators, the kernel name) ride in ``assign``,
  pickled once in the caller's thread when the release is built;
- **results** ride in ``complete`` as the worker's
  :func:`~repro.engine.shm.export_result` form: a shard's decoded table is a
  shared-memory descriptor (segment name, slot offsets, dictionaries), and
  only values under :data:`~repro.engine.shm.SHM_MIN_BYTES` travel whole;
- **the shared payload** (the :class:`~repro.engine.SynthesisPlan`, or a
  fit's encoded matrix) never rides a message.  A worker forked while
  it was bound (``LocalCluster.private``) inherits it, and ``assign`` says
  ``"shared": "inherited"``; otherwise it is pickled once into the
  coordinator's spool directory and ``assign`` carries the path.

Determinism contract: an ``assign`` message never *chooses* randomness —
the task tuple carries the shard's own ``SeedSequence`` children, fixed when
the release was sharded (see :mod:`repro.fleet.queue`).  Which worker runs a
shard, in what order, after how many reassignments, therefore cannot change
a single output byte.

Message types
-------------

=============  =========  ====================================================
type           direction  payload
=============  =========  ====================================================
``register``   w -> c     ``worker_id``, ``pid``, ``url`` (serving replicas
                          only)
``welcome``    c -> w     ``heartbeat_interval``
``heartbeat``  w -> c     (empty)
``assign``     c -> w     ``release``, ``index``, ``fn_module``, ``fn_name``,
                          ``shared`` (``None``, ``"inherited"`` or a spool
                          path), ``task`` (pickled bytes)
``complete``   w -> c     ``release``, ``index``, ``result`` (the export)
``failed``     w -> c     ``release``, ``index``, ``error``, ``traceback``,
                          ``exception`` (pickled bytes, when it pickles)
``shutdown``   c -> w     (empty)
=============  =========  ====================================================
"""

MSG_REGISTER = "register"
MSG_WELCOME = "welcome"
MSG_HEARTBEAT = "heartbeat"
MSG_ASSIGN = "assign"
MSG_COMPLETE = "complete"
MSG_FAILED = "failed"
MSG_SHUTDOWN = "shutdown"

#: ``assign``'s ``shared`` value for the payload a worker inherited at fork.
SHARED_INHERITED = "inherited"
