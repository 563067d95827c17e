"""MicroBatcher edge cases: the dispatch rule, flush races, deadlines,
failure fan-out.

These tests drive the batcher directly with a recording execute hook, so
every dispatch (its size and its operands) is observable.  A gated hook
holds the execution tier busy, which is how requests come to wait.
"""

import asyncio

import pytest

from repro.errors import ConfigurationError
from repro.serve.batcher import DeadlineExceeded, MicroBatcher
from repro.serve.protocol import parse_request


def _request(a=1, b=1, length=2, bits=4):
    return parse_request(
        {
            "op": "dpu.dot",
            "config": {"bits": bits, "slot_fs": 40_000, "length": length},
            "a_slots": [a] * length,
            "b_counts": [b] * length,
        }
    )


class _Recorder:
    """An execute hook that answers with lane indices and logs dispatches."""

    def __init__(self, gate=None, fail=False):
        self.dispatches = []
        self.gate = gate
        self.fail = fail

    async def __call__(self, op, config, operands_list):
        self.dispatches.append(list(operands_list))
        if self.gate is not None:
            await self.gate.wait()
        if self.fail:
            raise RuntimeError("engine exploded")
        return [{"count": index} for index in range(len(operands_list))]


async def _ticks():
    for _ in range(5):
        await asyncio.sleep(0)


async def _hold_busy(batcher, recorder):
    """Submit one request (a=0) and wait until its dispatch is in flight."""
    task = asyncio.ensure_future(batcher.submit(_request(a=0)))
    while not recorder.dispatches:
        await asyncio.sleep(0)
    return task


def _lanes(dispatches):
    return [[row["a_slots"][0] for row in dispatch] for dispatch in dispatches]


def test_idle_batcher_dispatches_a_lone_request_within_one_tick():
    async def main():
        loop = asyncio.get_running_loop()

        def no_timers(*args, **kwargs):
            raise AssertionError("the batcher armed a timer")

        loop.call_at = no_timers  # call_later goes through call_at too
        try:
            recorder = _Recorder()
            batcher = MicroBatcher(recorder, max_batch=64)
            task = asyncio.ensure_future(batcher.submit(_request(a=7)))
            for ticks in range(1, 10):
                await asyncio.sleep(0)
                if recorder.dispatches or task.done():
                    break
            return ticks, await task, recorder.dispatches
        finally:
            del loop.call_at

    ticks, result, dispatches = asyncio.run(main())
    # Tick 1 runs submit, which schedules the flush for the end of that
    # tick; tick 2 flushes; tick 3 starts the dispatch task.
    assert ticks <= 3
    assert _lanes(dispatches) == [[7]]
    assert result == {"count": 0}


def test_size_trigger_flushes_exactly_at_max_batch():
    async def main():
        recorder = _Recorder()
        batcher = MicroBatcher(recorder, max_batch=3)
        results = await asyncio.gather(
            *(batcher.submit(_request(a=i)) for i in range(5))
        )
        return recorder.dispatches, results

    dispatches, results = asyncio.run(main())
    # One tick: the first group closes at 3 lanes, the next two wait for
    # the freed slot.
    assert _lanes(dispatches) == [[0, 1, 2], [3, 4]]
    assert [r["count"] for r in results] == [0, 1, 2, 0, 1]


def test_same_tick_submissions_flush_as_one_partial_group():
    async def main():
        recorder = _Recorder()
        batcher = MicroBatcher(recorder, max_batch=64)
        results = await asyncio.gather(
            *(batcher.submit(_request(a=i)) for i in range(2))
        )
        return recorder.dispatches, results

    dispatches, results = asyncio.run(main())
    assert [len(d) for d in dispatches] == [2]
    assert [r["count"] for r in results] == [0, 1]


def test_timer_racing_a_size_flush_cannot_double_dispatch():
    """The end-of-tick flush scheduled when the group opened fires after
    the size trigger already dispatched that group: it must do nothing."""

    async def main():
        gate = asyncio.Event()
        recorder = _Recorder(gate=gate)
        batcher = MicroBatcher(recorder, max_batch=2)
        flushed = []
        real_flush = batcher._flush

        def spy(group):
            flushed.append(group)
            real_flush(group)

        batcher._flush = spy
        first = asyncio.ensure_future(batcher.submit(_request(a=1)))
        second = asyncio.ensure_future(batcher.submit(_request(a=2)))
        await _ticks()  # size flush, then the stale end-of-tick flush
        real_flush(flushed[0])  # and a stale trigger by hand
        in_flight = len(recorder.dispatches)
        gate.set()
        await asyncio.gather(first, second)
        await _ticks()
        return flushed, in_flight, recorder.dispatches

    flushed, in_flight, dispatches = asyncio.run(main())
    assert len(flushed) == 2 and flushed[0] is flushed[1]
    assert in_flight == 1
    assert [len(d) for d in dispatches] == [2]


def test_stale_tick_flush_never_dispatches_a_newer_group_under_its_key():
    async def main():
        gate = asyncio.Event()
        recorder = _Recorder(gate=gate)
        batcher = MicroBatcher(recorder, max_batch=2)
        # One tick: the first two fill a group (size flush; its end-of-tick
        # flush is still scheduled), the third opens a newer group under
        # the same key while the tier is busy.
        tasks = [
            asyncio.ensure_future(batcher.submit(_request(a=i)))
            for i in range(3)
        ]
        await asyncio.sleep(0.02)
        before_gate = (len(recorder.dispatches), batcher.pending)
        gate.set()
        await asyncio.gather(*tasks)
        return before_gate, recorder.dispatches

    before_gate, dispatches = asyncio.run(main())
    assert before_gate == (1, 1)  # the newer group is still waiting
    assert _lanes(dispatches) == [[0, 1], [2]]


def test_arrival_during_in_flight_flush_starts_a_new_group():
    async def main():
        gate = asyncio.Event()
        recorder = _Recorder(gate=gate)
        batcher = MicroBatcher(recorder, max_batch=2)
        blocked = [
            asyncio.ensure_future(batcher.submit(_request(a=i)))
            for i in range(2)
        ]
        # Wait until that group's dispatch is in flight (blocked on gate).
        while not recorder.dispatches:
            await asyncio.sleep(0)
        late = asyncio.ensure_future(batcher.submit(_request(a=9)))
        await asyncio.sleep(0.01)
        assert not late.done()  # queued in a NEW group, not the old one
        gate.set()
        await asyncio.gather(*blocked, late)
        return recorder.dispatches

    dispatches = asyncio.run(main())
    assert [len(d) for d in dispatches] == [2, 1]
    assert dispatches[1][0]["a_slots"] == [9, 9]


def test_arrivals_while_busy_become_one_dispatch_when_the_slot_frees():
    async def main():
        gate = asyncio.Event()
        recorder = _Recorder(gate=gate)
        batcher = MicroBatcher(recorder, max_batch=64)
        blocker = await _hold_busy(batcher, recorder)
        late = []
        for a in range(1, 4):  # three separate ticks
            late.append(asyncio.ensure_future(batcher.submit(_request(a=a))))
            await _ticks()
        await asyncio.sleep(0.02)  # no timer flushes them meanwhile
        before_gate = (len(recorder.dispatches), batcher.pending)
        gate.set()
        await asyncio.gather(blocker, *late)
        return before_gate, recorder.dispatches

    before_gate, dispatches = asyncio.run(main())
    assert before_gate == (1, 3)
    assert _lanes(dispatches) == [[0], [1, 2, 3]]


def test_full_group_flushes_at_max_batch_while_the_tier_is_busy():
    async def main():
        gate = asyncio.Event()
        recorder = _Recorder(gate=gate)
        batcher = MicroBatcher(recorder, max_batch=3)
        blocker = await _hold_busy(batcher, recorder)
        late = [
            asyncio.ensure_future(batcher.submit(_request(a=a)))
            for a in range(1, 5)
        ]
        await asyncio.sleep(0.02)
        before_gate = (_lanes(recorder.dispatches), batcher.pending)
        gate.set()
        await asyncio.gather(blocker, *late)
        return before_gate, recorder.dispatches

    before_gate, dispatches = asyncio.run(main())
    assert before_gate == ([[0], [1, 2, 3]], 1)
    assert _lanes(dispatches) == [[0], [1, 2, 3], [4]]


def test_capacity_two_runs_two_dispatches_at_once_and_a_third_waits():
    async def main():
        gate = asyncio.Event()
        recorder = _Recorder(gate=gate)
        batcher = MicroBatcher(recorder, max_batch=64, capacity=2)
        tasks = []
        for a in range(3):  # one request per tick
            tasks.append(asyncio.ensure_future(batcher.submit(_request(a=a))))
            await _ticks()
        await asyncio.sleep(0.02)
        before_gate = (_lanes(recorder.dispatches), batcher.pending)
        gate.set()
        await asyncio.gather(*tasks)
        return before_gate, recorder.dispatches

    before_gate, dispatches = asyncio.run(main())
    assert before_gate == ([[0], [1]], 1)
    assert _lanes(dispatches) == [[0], [1], [2]]


def test_deadline_eviction_happens_before_lanes_are_allocated():
    async def main():
        gate = asyncio.Event()
        recorder = _Recorder(gate=gate)
        batcher = MicroBatcher(recorder, max_batch=64)
        blocker = await _hold_busy(batcher, recorder)
        loop = asyncio.get_running_loop()
        doomed = asyncio.ensure_future(
            batcher.submit(_request(a=1), deadline_at=loop.time() + 0.001)
        )
        healthy = asyncio.ensure_future(
            batcher.submit(_request(a=2), deadline_at=loop.time() + 30.0)
        )
        await asyncio.sleep(0.02)  # the doomed budget runs out in the queue
        gate.set()
        with pytest.raises(DeadlineExceeded):
            await doomed
        result = await healthy
        await blocker
        return recorder.dispatches, result, batcher.metrics.to_dict()

    dispatches, result, metrics = asyncio.run(main())
    # The expired request never occupied a lane: the dispatch has one row.
    assert _lanes(dispatches) == [[0], [2]]
    assert result == {"count": 0}
    # Eviction is visible in the metrics the service scrapes.
    assert metrics["counters"]["serve_deadline_evictions_total"] == 1


def test_all_expired_group_dispatches_nothing():
    async def main():
        recorder = _Recorder()
        batcher = MicroBatcher(recorder, max_batch=64)
        loop = asyncio.get_running_loop()
        doomed = batcher.submit(
            _request(a=1), deadline_at=loop.time() - 1.0
        )
        with pytest.raises(DeadlineExceeded):
            await doomed
        await asyncio.sleep(0.02)
        return recorder.dispatches

    assert asyncio.run(main()) == []


def test_execute_failure_fans_out_to_every_waiter():
    async def main():
        recorder = _Recorder(fail=True)
        batcher = MicroBatcher(recorder, max_batch=2)
        futures = [
            asyncio.ensure_future(batcher.submit(_request(a=i)))
            for i in range(2)
        ]
        done = await asyncio.gather(*futures, return_exceptions=True)
        return done

    outcomes = asyncio.run(main())
    assert len(outcomes) == 2
    assert all(isinstance(item, RuntimeError) for item in outcomes)


def test_coalesce_false_dispatches_immediately_as_group_of_one():
    async def main():
        gate = asyncio.Event()
        recorder = _Recorder(gate=gate)
        batcher = MicroBatcher(recorder, max_batch=64)
        blocker = await _hold_busy(batcher, recorder)
        solo = asyncio.ensure_future(
            batcher.submit(_request(a=5), coalesce=False)
        )
        await _ticks()
        before_gate = _lanes(recorder.dispatches)
        gate.set()
        await blocker
        return before_gate, await solo

    before_gate, result = asyncio.run(main())
    # No wait for the busy tier's slot: the solo path dispatched at once.
    assert before_gate == [[0], [5]]
    assert result == {"count": 0}


def test_max_batch_one_never_coalesces():
    async def main():
        recorder = _Recorder()
        batcher = MicroBatcher(recorder, max_batch=1)
        results = await asyncio.gather(
            *(batcher.submit(_request(a=i)) for i in range(3))
        )
        return recorder.dispatches, results

    dispatches, _results = asyncio.run(main())
    assert [len(d) for d in dispatches] == [1, 1, 1]


def test_flush_all_drains_open_groups():
    async def main():
        gate = asyncio.Event()
        recorder = _Recorder(gate=gate)
        batcher = MicroBatcher(recorder, max_batch=64)
        blocker = await _hold_busy(batcher, recorder)
        pending = [
            asyncio.ensure_future(batcher.submit(_request(a=i)))
            for i in range(1, 3)
        ]
        await _ticks()
        assert batcher.pending == 2
        batcher.flush_all()  # dispatches even though the tier is busy
        await _ticks()
        flushed = (batcher.pending, _lanes(recorder.dispatches))
        gate.set()
        await asyncio.gather(blocker, *pending)
        return flushed

    pending, dispatches = asyncio.run(main())
    assert pending == 0
    assert dispatches == [[0], [1, 2]]


@pytest.mark.parametrize("field", ["max_batch", "capacity"])
def test_constructor_rejects_non_positive_bounds(field):
    with pytest.raises(ConfigurationError, match=field):
        MicroBatcher(_Recorder(), **{field: 0})
