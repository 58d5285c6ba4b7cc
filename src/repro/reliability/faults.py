"""FaultInjector: typed, deterministic fault injection for chaos testing.

The failure paths of this codebase — a worker killed mid-shard, a
``/dev/shm`` result file vanishing between export and import, a slow task, a model file
corrupted mid-rewrite — are first-class tested surfaces, which requires
*triggering* them deterministically.  This module provides:

- :class:`FaultSpec` — one declarative fault: a ``kind`` (what happens), a
  ``site`` (the named trigger point in the code), an optional ``index``
  (fire only for that shard/occurrence) and a ``times`` budget (how many
  firings, total, across every process).
- :class:`FaultInjector` — holds armed specs and decides, at each trigger
  point, whether to fire.  The ``times`` accounting is **cross-process**:
  each firing atomically claims a token file (``O_CREAT | O_EXCL``) in the
  injector's token directory, so a fault armed in the parent fires exactly
  ``times`` times no matter how many forked pool workers pass the trigger
  point — and, crucially, a *retried* task does not re-fire a spent fault.
- :func:`install` / :func:`inject` — a module-global injector that forked
  workers inherit, and production trigger points consult via
  :func:`maybe_fire` (a no-op when nothing is armed, which is the
  always-on cost of the harness: one global read).

Fault kinds:

=================  =========================================================
``kill_worker``    ``SIGKILL`` the current process (a dead pool worker).
``delay``          Sleep ``delay_seconds`` (a slow task / stalled request).
``error``          Raise :class:`~repro.reliability.errors.FaultError`.
``drop_shm``       Returned to the caller, which unlinks the result files
                   it just exported (a vanished ``/dev/shm`` file).
``corrupt_model``  Truncate the model file at the trigger's ``path`` to
                   half its size (a mid-rewrite / corrupt ``.ndpsyn``).
=================  =========================================================

Trigger sites live next to the code they test: ``SITE_SHARD`` in the engine
shard tasks (worker side), ``SITE_SHM_EXPORT`` in the worker's result-file
export, ``SITE_MODEL_LOAD`` in the registry's load path, and ``SITE_QUERY``
in the HTTP service's engine execution.  The module-global installation
relies on fork inheritance for worker-side sites; platforms whose default
start method is ``spawn`` skip the worker-side chaos tests.
"""

from __future__ import annotations

import os
import signal
import tempfile
import time
from dataclasses import dataclass

from repro.reliability.errors import FaultError

#: Trigger sites (keep in sync with the table in the module docstring).
SITE_SHARD = "shard"
SITE_SHM_EXPORT = "shm_export"
SITE_MODEL_LOAD = "model_load"
SITE_QUERY = "service_query"

KIND_KILL = "kill_worker"
KIND_DELAY = "delay"
KIND_ERROR = "error"
KIND_DROP_SHM = "drop_shm"
KIND_CORRUPT_MODEL = "corrupt_model"

FAULT_KINDS = (KIND_KILL, KIND_DELAY, KIND_ERROR, KIND_DROP_SHM, KIND_CORRUPT_MODEL)


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: what fires, where, for which occurrence, how often."""

    kind: str
    site: str
    #: Fire only when the trigger point reports this index (shard number,
    #: request number, ...); ``None`` matches every occurrence.
    index: int | None = None
    #: Total firings across all processes (each firing claims one token).
    times: int = 1
    delay_seconds: float = 0.05
    #: ``corrupt_model`` target; ``None`` corrupts the path the trigger
    #: point reports.
    path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if self.delay_seconds < 0:
            raise ValueError(f"delay_seconds must be >= 0, got {self.delay_seconds}")


class FaultInjector:
    """Decides at every trigger point whether an armed fault fires.

    The injector is cheap enough to leave installed: an unmatched
    :meth:`fire` is a tuple scan.  Token files give exactly-``times``
    semantics across forked workers and across retries — the property the
    chaos suite's digest-identity assertions depend on (a kill that
    re-fired on the retried shard would never converge).
    """

    def __init__(self, specs=(), token_dir: str | None = None) -> None:
        self.specs = tuple(specs)
        if token_dir is None:
            token_dir = tempfile.mkdtemp(prefix="repro-faults-")
        self.token_dir = token_dir

    # ---------------------------------------------------------------- tokens
    def _claim(self, spec_index: int, spec: FaultSpec) -> bool:
        """Atomically claim one of the spec's ``times`` firing tokens."""
        for firing in range(spec.times):
            token = os.path.join(self.token_dir, f"fault-{spec_index}-{firing}")
            try:
                fd = os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(fd)
            return True
        return False

    def fired(self, kind: str | None = None) -> int:
        """Total firings so far (optionally of one kind), across processes."""
        count = 0
        try:
            tokens = os.listdir(self.token_dir)
        except FileNotFoundError:  # pragma: no cover - reset raced
            return 0
        for token in tokens:
            if not token.startswith("fault-"):
                continue
            spec_index = int(token.split("-")[1])
            if kind is None or self.specs[spec_index].kind == kind:
                count += 1
        return count

    def reset(self) -> None:
        """Forget every firing (re-arms all specs)."""
        try:
            for token in os.listdir(self.token_dir):
                try:
                    os.unlink(os.path.join(self.token_dir, token))
                except FileNotFoundError:  # pragma: no cover - concurrent reset
                    pass
        except FileNotFoundError:  # pragma: no cover - dir already gone
            pass

    # ----------------------------------------------------------------- firing
    def fire(self, site: str, index: int | None = None, path: str | None = None):
        """Fire the first matching, unspent spec at ``site``; return it.

        ``kill_worker`` / ``delay`` / ``error`` / ``corrupt_model`` execute
        here; ``drop_shm`` only claims its token and is returned for the
        caller to act on (the caller owns the result files).  Returns
        ``None`` when nothing fired.
        """
        for spec_index, spec in enumerate(self.specs):
            if spec.site != site:
                continue
            if spec.index is not None and spec.index != index:
                continue
            if not self._claim(spec_index, spec):
                continue
            self._execute(spec, site, index, path)
            return spec
        return None

    def _execute(self, spec: FaultSpec, site: str, index, path) -> None:
        if spec.kind == KIND_KILL:
            os.kill(os.getpid(), signal.SIGKILL)
        elif spec.kind == KIND_DELAY:
            time.sleep(spec.delay_seconds)
        elif spec.kind == KIND_ERROR:
            raise FaultError(f"injected fault at {site}[{index}]")
        elif spec.kind == KIND_CORRUPT_MODEL:
            target = spec.path or path
            if target:
                _truncate_file(target)
        # KIND_DROP_SHM: caller-handled (see docstring).


def _truncate_file(path: str) -> None:
    """Chop a file to half its size — a deterministic 'mid-rewrite' state."""
    try:
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size // 2)
    except OSError:  # pragma: no cover - corrupt target vanished
        pass


#: The module-global injector production trigger points consult.  Installed
#: by tests/benches; forked pool workers inherit it.
_INSTALLED: FaultInjector | None = None


def install(injector: FaultInjector | None) -> None:
    """Install (or, with ``None``, remove) the global fault injector."""
    global _INSTALLED
    _INSTALLED = injector


def installed() -> FaultInjector | None:
    return _INSTALLED


def maybe_fire(site: str, index: int | None = None, path: str | None = None):
    """Fire the installed injector at a trigger point (no-op when none)."""
    injector = _INSTALLED
    if injector is None:
        return None
    return injector.fire(site, index=index, path=path)


class inject:
    """Context manager: arm specs for the block, clean up after.

    >>> with inject(FaultSpec(kind="kill_worker", site=SITE_SHARD, index=2)):
    ...     synth.sample(1000, shards=4, backend="process")   # doctest: +SKIP
    """

    def __init__(self, *specs: FaultSpec) -> None:
        self.injector = FaultInjector(specs)

    def __enter__(self) -> FaultInjector:
        install(self.injector)
        return self.injector

    def __exit__(self, *exc_info) -> None:
        install(None)
        self.injector.reset()
        try:
            os.rmdir(self.injector.token_dir)
        except OSError:  # pragma: no cover - leftover tokens from a race
            pass
