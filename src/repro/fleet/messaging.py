"""Fleet wire protocol: pickled ``(type, payload)`` messages on one socketpair per worker.

Every message the coordinator and its workers exchange is one
``(type, payload)`` tuple — ``type`` one of the names below, ``payload`` a
dict — sent with ``Connection.send`` and read with ``Connection.recv``
(length-prefixed frames) over the :func:`multiprocessing.Pipe` that
``LocalCluster`` makes for each worker it starts.  Only the cluster's own
children hold a connection, and the coordinator unpickles what they send —
the same trust it already extends to the tasks, results and exceptions
inside.  None of the values is bulky:

- **task arguments** (a few hundred bytes: the shard size, its pre-spawned
  ``SeedSequence``-child generators, the shard index) ride in ``assign``,
  pickled once in the caller's thread when the release is built;
- **results** ride in ``complete`` as the worker's
  :func:`~repro.engine.shm.export_result` form: a shard's decoded table is a
  descriptor (the path of a ``/dev/shm`` file under the worker's prefix,
  slot offsets, dictionaries), which the coordinator maps and unlinks on
  import, and only values under :data:`~repro.engine.shm.SHM_MIN_BYTES`
  travel whole;
- **the shared payload** (the :class:`~repro.engine.SynthesisPlan`, or a
  fit's encoded matrix) never rides a message.  A worker forked while
  it was bound (``LocalCluster.private``) inherits it, and ``assign`` says
  ``"shared": "inherited"``; otherwise it is pickled once into the
  coordinator's spool directory and ``assign`` carries the path.

A worker is known by its connection from the moment it is started, so
nothing registers.  No message carries liveness; a worker is lost when its
connection ends or its shard overruns the release's ``task_timeout``.

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
``assign``     c -> w     ``release``, ``index``, ``fn_module``, ``fn_name``,
                          ``shared`` (``None``, ``"inherited"`` or a spool
                          path), ``task`` (pickled bytes)
``complete``   w -> c     ``release``, ``index``, ``result`` (the export)
``failed``     w -> c     ``release``, ``index``, ``error``, ``traceback``,
                          ``exception`` (pickled bytes, when it pickles)
``shutdown``   c -> w     (empty)
=============  =========  ====================================================
"""

MSG_ASSIGN = "assign"
MSG_COMPLETE = "complete"
MSG_FAILED = "failed"
MSG_SHUTDOWN = "shutdown"

#: ``assign``'s ``shared`` value for the payload a worker inherited at fork.
SHARED_INHERITED = "inherited"
