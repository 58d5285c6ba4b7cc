"""Versioned model persistence: fit once, sample anywhere.

A saved model is a small header (magic bytes, so corrupt or foreign files
fail fast with a clear error) followed by a pickled payload dict carrying:

- the frozen :class:`~repro.engine.SynthesisPlan` (published marginals,
  codecs, schemas, rules, GUMMI key — everything sampling needs),
- the :class:`~repro.core.config.SynthesisConfig` the model was fitted with,
- the budget-ledger report (total rho and the per-stage audit log),
- the :class:`~repro.pipeline.FitReport` and DenseMarg selection summary,
- the sampling seed sequence (so ``sample()`` without an explicit rng
  continues exactly where the saved instance would have).

Sampling is pure post-processing, so the file is safe to ship to any worker:
whatever it generates carries the same ``(epsilon, delta)``-DP guarantee as
the published marginals inside it.  The loaded instance has no encoder and
cannot ``fit()`` again meaningfully, but ``sample(n, rng=s)`` is bit-identical
to the instance that was saved.

The payload is a pickle: load only model files you trust, exactly as with
any pickle-based format (torch, joblib, ...).
"""

from __future__ import annotations

import pickle
from pathlib import Path

from repro.dp.accountant import BudgetLedger

#: File magic; bumped only if the container layout (not the payload schema)
#: changes.  Payload schema changes bump MODEL_VERSION instead.
MODEL_MAGIC = b"NETDPSYN-MODEL\n"
MODEL_FORMAT = "netdpsyn-model"
MODEL_VERSION = 1

#: Engine backend names earlier releases stored, mapped to the backend that
#: now produces the same output: ``thread`` ran the serial loop on threads,
#: ``shared`` is the process pool every ``process`` backend now is.
RETIRED_BACKENDS = {"thread": "serial", "shared": "process"}


def save_model(synth, path) -> Path:
    """Write a fitted :class:`~repro.core.synthesizer.NetDPSyn` to ``path``.

    Raises ``RuntimeError`` if the synthesizer has not been fitted.
    """
    import repro

    plan = synth.plan()  # raises RuntimeError on an unfitted instance
    ledger = synth.ledger
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "library_version": repro.__version__,
        "config": synth.config,
        "plan": plan,
        "ledger": None if ledger is None else {
            "total": ledger.total,
            "entries": ledger.entries(),
        },
        "selection": synth.selection,
        "fit_report": synth.fit_report,
        "seed_seq": synth._seed_seq,
    }
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return path


def load_model(path):
    """Restore a fitted synthesizer from a :func:`save_model` file."""
    from repro.core.synthesizer import NetDPSyn

    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(MODEL_MAGIC))
        if magic != MODEL_MAGIC:
            raise ValueError(f"{path} is not a NetDPSyn model file")
        try:
            payload = pickle.load(fh)
        except (pickle.UnpicklingError, EOFError) as exc:
            raise ValueError(f"{path} is truncated or corrupt: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path} is not a NetDPSyn model file")
    version = payload.get("version")
    if not isinstance(version, int) or version < 1 or version > MODEL_VERSION:
        raise ValueError(
            f"{path} has model format version {version!r}; this library "
            f"supports versions 1..{MODEL_VERSION}"
        )

    plan = payload["plan"]
    _upgrade_names(plan, payload["config"])
    synth = NetDPSyn(payload["config"])
    synth._plan = plan
    synth._seed_seq = payload["seed_seq"]
    synth.published = plan.published
    synth.selection = payload["selection"]
    synth.fit_report = payload["fit_report"]
    synth._rules = plan.rules
    synth._key_attr = plan.key_attr
    synth._original_schema = plan.original_schema
    ledger_report = payload["ledger"]
    if ledger_report is not None:
        # Replay the audit log so the restored ledger enforces the same
        # invariants (spent == sum of entries <= total) as the original.
        ledger = BudgetLedger(ledger_report["total"])
        for purpose, rho in ledger_report["entries"]:
            ledger.spend(rho, purpose)
        synth.ledger = ledger
    return synth


def _upgrade_names(plan, config) -> None:
    """Drop or map engine settings retired since the model was saved.

    Without this ``config.engine.override()`` — run by every ``sample()`` —
    would reject a stored ``thread``, and a stored ``shared`` would outlive
    the backend it named.  Each retired backend was bit-identical to its
    :data:`RETIRED_BACKENDS` target; the ``kernel`` and
    ``GumConfig.update_mode`` pins only chose between bit-identical GUM
    kernels, so they are dropped.
    """
    engine = config.engine
    engine.backend = RETIRED_BACKENDS.get(engine.backend, engine.backend)
    for stale in (plan, engine):
        vars(stale).pop("kernel", None)
    for gum in (plan.gum, config.gum):
        vars(gum).pop("update_mode", None)
