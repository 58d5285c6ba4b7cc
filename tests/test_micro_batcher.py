"""MicroBatcher state machine: leader handoff, follower deadlines, invariants.

The batcher has no collection window: a request to an idle group runs at
once, later arrivals queue, and a finishing leader hands the lead to the
first queued request before returning.  These tests drive it with fake
runners gated on events, so every interleaving they assert is forced, not
hoped for; the stress test checks the invariants under seeded random
delays, faults and deadlines.
"""

import random
import sys
import threading
import time
from types import SimpleNamespace

from repro.reliability import Deadline, DeadlineExceeded
from repro.serving import EngineFaultError, MicroBatcher, Prefer

#: Bound on every wait and join in this file; a hang fails instead of stalling.
WAIT = 5.0

KEY = ("model", 1, Prefer.AUTO)


class GatedRunner:
    """Fake ``runner``: answers echo their query; batch ``i`` waits on
    ``gates[i]`` (when given) after signalling ``entered[i]``."""

    def __init__(self, gates=()) -> None:
        self.gates = list(gates)
        self.batches: list = []
        self.entered = [threading.Event() for _ in range(8)]

    def __call__(self, engine, queries, prefer):
        index = len(self.batches)
        self.batches.append(list(queries))
        self.entered[index].set()
        if index < len(self.gates):
            assert self.gates[index].wait(WAIT), f"batch {index} gate never opened"
        return [SimpleNamespace(query=q) for q in queries]


class Caller(threading.Thread):
    """One ``submit`` on its own thread, keeping the answer or the error."""

    def __init__(self, batcher, query, deadline=None) -> None:
        super().__init__(name=str(query), daemon=True)
        self.batcher = batcher
        self.query = query
        self.deadline = deadline
        self.answer = None
        self.error = None

    def run(self) -> None:
        try:
            self.answer = self.batcher.submit(
                KEY, None, Prefer.AUTO, self.query, deadline=self.deadline
            )
        except BaseException as exc:
            self.error = exc


def _start(batcher, query, deadline=None) -> Caller:
    caller = Caller(batcher, query, deadline)
    caller.start()
    return caller


def _queued(batcher) -> int:
    with batcher._lock:
        group = batcher._groups.get(KEY)
        return len(group.queue) if group is not None else 0


def _wait_until(predicate) -> None:
    stop = time.monotonic() + WAIT
    while not predicate():
        assert time.monotonic() < stop, "condition never became true"
        time.sleep(0.001)


def _join(*callers) -> None:
    for caller in callers:
        caller.join(WAIT)
        assert not caller.is_alive(), f"{caller.name} hung"


def test_leader_returns_after_its_own_batch():
    gates = [threading.Event(), threading.Event()]
    runner = GatedRunner(gates)
    batcher = MicroBatcher(max_batch=8, runner=runner)
    leader = _start(batcher, "lead")
    assert runner.entered[0].wait(WAIT)
    followers = [_start(batcher, f"f{i}") for i in range(3)]
    _wait_until(lambda: _queued(batcher) == 3)

    gates[0].set()
    assert runner.entered[1].wait(WAIT)  # a follower now leads batch 2...
    leader.join(WAIT)
    assert not leader.is_alive(), "leader kept draining instead of handing off"
    assert not gates[1].is_set()  # ...which is still held
    assert leader.answer.query == "lead"

    gates[1].set()
    _join(*followers)
    assert [f.answer.query for f in followers] == ["f0", "f1", "f2"]
    assert runner.batches[0] == ["lead"]
    assert sorted(runner.batches[1]) == ["f0", "f1", "f2"]
    assert batcher._groups == {}
    stats = batcher.stats()
    assert (stats["batches"], stats["batched_queries"], stats["largest_batch"]) == (2, 4, 3)


def test_queued_follower_past_its_deadline_leaves_the_queue():
    gate = threading.Event()
    runner = GatedRunner([gate])
    batcher = MicroBatcher(max_batch=8, runner=runner)
    leader = _start(batcher, "lead")
    assert runner.entered[0].wait(WAIT)
    late = _start(batcher, "late", Deadline.after(0.01))
    _join(late)
    assert isinstance(late.error, DeadlineExceeded)
    assert _queued(batcher) == 0

    gate.set()
    _join(leader)
    assert leader.answer.query == "lead"
    assert runner.batches == [["lead"]]  # the abandoned query never ran
    assert batcher._groups == {}


def test_follower_in_a_running_batch_gives_up_at_its_deadline():
    gates = [threading.Event(), threading.Event()]
    runner = GatedRunner(gates)
    batcher = MicroBatcher(max_batch=8, runner=runner)
    leader = _start(batcher, "lead")
    assert runner.entered[0].wait(WAIT)
    head = _start(batcher, "head")
    _wait_until(lambda: _queued(batcher) == 1)
    late = _start(batcher, "late", Deadline.after(0.5))
    _wait_until(lambda: _queued(batcher) == 2)

    gates[0].set()
    assert runner.entered[1].wait(WAIT)
    assert runner.batches[1] == ["head", "late"]
    _join(late)  # its deadline lapses while batch 2 is held
    assert isinstance(late.error, DeadlineExceeded)

    gates[1].set()
    _join(leader, head)
    assert head.answer.query == "head"
    assert batcher.stats()["batched_queries"] == 3  # the slot still completed
    assert batcher._groups == {}


class _PromoteBeforeRelock:
    """Batcher lock wrapper forcing the handoff race: when ``caller`` comes
    back for the lock after its deadline wait timed out (its second
    acquisition), ``before`` runs first — here, the leader finishing and
    promoting it."""

    def __init__(self, lock, caller_name: str, before) -> None:
        self._lock = lock
        self._caller_name = caller_name
        self._before = before
        self._seen = 0

    def __enter__(self):
        if threading.current_thread().name == self._caller_name:
            self._seen += 1
            if self._seen == 2:
                self._before()
        return self._lock.__enter__()

    def __exit__(self, *exc):
        return self._lock.__exit__(*exc)


def test_follower_promoted_as_its_deadline_lapses_still_leads():
    gate = threading.Event()
    runner = GatedRunner([gate])
    batcher = MicroBatcher(max_batch=8, runner=runner)
    leader = _start(batcher, "lead")
    assert runner.entered[0].wait(WAIT)

    def finish_leader():
        gate.set()
        _join(leader)  # it promoted "late", the head of the queue

    batcher._lock = _PromoteBeforeRelock(batcher._lock, "late", finish_leader)
    late = _start(batcher, "late", Deadline.after(0.5))
    _wait_until(lambda: _queued(batcher) == 1)
    tail = _start(batcher, "tail")
    _wait_until(lambda: _queued(batcher) == 2)

    _join(late, tail)
    assert late.error is None and late.answer.query == "late"
    assert tail.error is None and tail.answer.query == "tail"  # no stall behind it
    assert runner.batches == [["lead"], ["late", "tail"]]
    assert batcher._groups == {}


def test_seeded_stress_keeps_the_batcher_invariants():
    rng = random.Random(7)
    rng_lock = threading.Lock()
    executed = [0]

    def runner(engine, queries, prefer):
        with rng_lock:
            delay, fail = rng.uniform(0.0, 0.03), rng.random() < 0.05
        time.sleep(delay)
        if fail:
            raise EngineFaultError("injected engine fault")
        with rng_lock:
            executed[0] += len(queries)
        return [SimpleNamespace(query=q) for q in queries]

    batcher = MicroBatcher(max_batch=2, runner=runner)
    keys = [("model", generation, Prefer.AUTO) for generation in range(2)]
    plans = [
        [
            (
                rng.choice(keys),
                (caller, i),
                None if rng.random() < 0.5 else Deadline.after(rng.uniform(0.0, 0.01)),
            )
            for i in range(20)
        ]
        for caller in range(12)
    ]
    outcomes: list = []
    problems: list = []

    def drive(plan):
        for key, query, deadline in plan:
            try:
                answer = batcher.submit(key, None, Prefer.AUTO, query, deadline=deadline)
            except (EngineFaultError, DeadlineExceeded) as exc:
                outcomes.append(type(exc).__name__)
            except BaseException as exc:  # pragma: no cover - surfaced below
                problems.append(f"untyped {exc!r}")
            else:
                outcomes.append("answer")
                if answer.query != query:
                    problems.append(f"{query} got the answer of {answer.query}")

    threads = [threading.Thread(target=drive, args=(plan,), daemon=True) for plan in plans]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(WAIT)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), "a submit hung"
    assert not problems, problems[:5]
    assert len(outcomes) == 12 * 20
    assert set(outcomes) == {"answer", "EngineFaultError", "DeadlineExceeded"}
    assert batcher._groups == {}
    assert batcher.stats()["batched_queries"] == executed[0]
