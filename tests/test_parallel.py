"""ProcessActor lifecycle: crashes are typed, restart() recovers.

The serving layer keeps a pool of persistent actors and must tell three
situations apart: the handler raised (actor still healthy), the worker
*process* died (actor unusable until restarted), and a clean close.  These
tests kill real child processes to pin the first two down.
"""

import os
import signal
import time

import pytest

from repro.parallel import ProcessActor, WorkerCrashed, WorkerError


def _echo_factory(tag):
    def handler(command, payload):
        if command == "echo":
            return (tag, payload)
        if command == "pid":
            return os.getpid()
        if command == "sleep":
            time.sleep(payload)
            return "slept"
        if command == "boom":
            raise RuntimeError("handler exploded")
        if command == "die":
            os._exit(payload)
        raise ValueError(f"unknown command {command}")

    return handler


def _broken_factory():
    raise RuntimeError("factory cannot build")


def test_actor_round_trip_and_handler_error_keeps_actor_alive():
    with ProcessActor(_echo_factory, "t1") as actor:
        assert actor.call("echo", 42) == ("t1", 42)
        with pytest.raises(WorkerError) as excinfo:
            actor.call("boom")
        # A handler exception is NOT a crash: the process survives and the
        # traceback travels back for diagnosis.
        assert not isinstance(excinfo.value, WorkerCrashed)
        assert "handler exploded" in str(excinfo.value)
        assert actor.is_alive()
        assert actor.call("echo", "after") == ("t1", "after")


def test_sigkill_mid_command_raises_worker_crashed():
    with ProcessActor(_echo_factory, "t2") as actor:
        pid = actor.call("pid")
        actor.submit("sleep", 30.0)
        os.kill(pid, signal.SIGKILL)
        with pytest.raises(WorkerCrashed):
            actor.result()
        deadline = time.monotonic() + 5
        while actor.is_alive() and time.monotonic() < deadline:
            time.sleep(0.01)  # killed child needs a beat to become waitable
        assert not actor.is_alive()


def test_worker_exit_mid_command_raises_worker_crashed():
    with ProcessActor(_echo_factory, "t3") as actor:
        actor.call("pid")  # consume the ready handshake first
        actor.submit("die", 3)
        with pytest.raises(WorkerCrashed):
            actor.result()


def test_restart_after_crash_serves_again_with_fresh_process():
    with ProcessActor(_echo_factory, "t4") as actor:
        first_pid = actor.call("pid")
        actor.submit("sleep", 30.0)
        os.kill(first_pid, signal.SIGKILL)
        with pytest.raises(WorkerCrashed):
            actor.result()
        actor.restart()
        second_pid = actor.call("pid")
        assert second_pid != first_pid
        assert actor.call("echo", "hello") == ("t4", "hello")


def test_restart_recycles_a_healthy_actor():
    with ProcessActor(_echo_factory, "t5") as actor:
        first_pid = actor.call("pid")
        actor.restart()
        assert actor.call("pid") != first_pid


def test_submit_to_dead_worker_raises_worker_crashed():
    actor = ProcessActor(_echo_factory, "t6")
    try:
        pid = actor.call("pid")
        os.kill(pid, signal.SIGKILL)
        # Give the OS a moment to reap; submit may succeed into the buffer
        # on some platforms, in which case the crash surfaces on result().
        deadline = time.monotonic() + 5
        while actor._process.is_alive() and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(WorkerCrashed):
            actor.submit("echo", 1)
            actor.result()
    finally:
        actor.close()


def test_factory_failure_surfaces_as_worker_error():
    with ProcessActor(_broken_factory) as actor:
        with pytest.raises(WorkerError, match="factory cannot build"):
            actor.call("echo", 1)


def test_factory_failure_survives_the_worker_exiting_first():
    """The failed factory's worker has already exited when the first
    command is sent: the traceback it left still wins over the closed
    pipe."""
    with ProcessActor(_broken_factory) as actor:
        actor._process.join(timeout=10)
        assert not actor._process.is_alive()
        with pytest.raises(WorkerError, match="factory cannot build"):
            actor.call("echo", 1)
