"""Worker-process plumbing for the shard engine and the serving tier.

:class:`ProcessActor` is a persistent worker process owning long-lived
state (a sealed shard kernel), serving a request/response command loop
over a pipe.  Several actors progress concurrently because
:meth:`ProcessActor.submit` does not wait for the reply; callers
broadcast commands to all actors (:func:`broadcast`), then collect with
:meth:`ProcessActor.result`.

:func:`resolve_jobs` is the one place a user-facing ``--jobs`` value
(``"auto"``, a number, or ``None``) becomes a concrete worker count.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from typing import Any, Callable, Iterable, List, Optional, Sequence, Union

from repro.errors import ConfigurationError, ReproError


class WorkerError(ReproError):
    """Raised in the parent when a worker process fails or disappears.

    Carries the worker-side traceback (when one was captured) so the
    failure is diagnosable without attaching to the child."""


class WorkerCrashed(WorkerError):
    """The worker *process* died (killed, segfaulted, exited) mid-command.

    Distinct from a plain :class:`WorkerError` (the handler raised but the
    process is fine): after a crash the actor cannot serve again until
    :meth:`ProcessActor.restart` rebuilds it, and the command that was in
    flight may or may not have executed — callers decide whether a retry
    is safe."""


def resolve_jobs(jobs: Union[int, str, None]) -> int:
    """Resolve a user-facing ``--jobs`` value to a worker count.

    ``"auto"`` (case-insensitive) and ``None`` resolve to
    ``os.cpu_count()``; integers (or integer strings) pass through.
    Raises :class:`~repro.errors.ConfigurationError` for zero, negative,
    or unparseable values, so CLIs surface a clean exit-code-2 message.
    """
    if jobs is None:
        return os.cpu_count() or 1
    if isinstance(jobs, str):
        text = jobs.strip().lower()
        if text == "auto":
            return os.cpu_count() or 1
        try:
            jobs = int(text)
        except ValueError:
            raise ConfigurationError(
                f"invalid jobs value {jobs!r}: expected a positive integer "
                "or 'auto'"
            ) from None
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    return jobs


# -- persistent actors ---------------------------------------------------------
def _actor_main(conn, factory, args, kwargs) -> None:
    """Worker-process loop: build the handler, then serve commands.

    The handler is ``factory(*args, **kwargs)``; each pipe message is a
    ``(command, payload)`` pair answered with ``("ok", result)`` or
    ``("error", traceback_text)``.  ``None`` shuts the loop down.
    """
    try:
        handler = factory(*args, **kwargs)
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        finally:
            conn.close()
        return
    conn.send(("ok", None))  # ready handshake
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            if message is None:
                break
            command, payload = message
            try:
                conn.send(("ok", handler(command, payload)))
            except BaseException:
                conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


class ProcessActor:
    """A persistent worker process serving a request/response loop.

    ``factory`` (a picklable, module-level callable) runs once inside the
    child and returns a *handler*: ``handler(command, payload) -> result``.
    The parent talks to it with :meth:`call`, or — to keep several actors
    busy at once — :meth:`submit` to all of them first and :meth:`result`
    afterwards.  One request may be outstanding per actor.

    Construction does not wait for the child's handler to finish building
    (K actors boot concurrently); factory failures surface on the first
    :meth:`result`/:meth:`call` as :class:`WorkerError`.
    """

    def __init__(self, factory: Callable[..., Any], *args: Any, **kwargs: Any):
        self._factory = factory
        self._args = args
        self._kwargs = kwargs
        self._spawn()

    def _spawn(self) -> None:
        parent_conn, child_conn = multiprocessing.Pipe()
        self._conn = parent_conn
        self._process = multiprocessing.Process(
            target=_actor_main,
            args=(child_conn, self._factory, self._args, self._kwargs),
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        self._ready = False
        self._closed = False

    def is_alive(self) -> bool:
        """True while the worker process exists and has not exited."""
        return not self._closed and self._process.is_alive()

    def restart(self) -> None:
        """Tear the worker down (if anything is left) and spawn a fresh one.

        The replacement runs the same ``factory(*args, **kwargs)``; any
        reply still in flight from the old process is discarded.  Safe to
        call after :class:`WorkerCrashed`, after :meth:`close`, or on a
        healthy actor (which is simply recycled)."""
        self.close()
        self._spawn()

    def _recv(self) -> Any:
        # Poll in small slices so a worker that dies *without* closing the
        # pipe (SIGKILL during a long command never flushes buffers; an
        # inherited descriptor can keep the pipe open) surfaces as a typed
        # crash instead of a parent blocked on recv() forever.  Buffered
        # replies win over death detection: a worker that answered and then
        # exited still delivers its answer.
        while True:
            try:
                if self._conn.poll(0.05):
                    break
            except (OSError, ValueError):
                raise WorkerCrashed(
                    "worker pipe closed "
                    f"(exitcode={self._process.exitcode})"
                ) from None
            if not self._process.is_alive() and not self._conn.poll(0):
                raise WorkerCrashed(
                    "worker process died before replying "
                    f"(exitcode={self._process.exitcode})"
                )
        try:
            status, payload = self._conn.recv()
        except (EOFError, OSError):
            # EOFError: clean close without a reply.  OSError (notably
            # ConnectionResetError): the peer was killed hard and the
            # kernel reset the socketpair.  Both mean the same thing here.
            raise WorkerCrashed(
                "worker process died before replying "
                f"(exitcode={self._process.exitcode})"
            ) from None
        if status != "ok":
            raise WorkerError(f"worker command failed:\n{payload}")
        return payload

    def submit(self, command: str, payload: Any = None) -> None:
        """Send one command without waiting for its reply."""
        if self._closed:
            raise WorkerError("actor is closed")
        try:
            self._conn.send((command, payload))
        except (BrokenPipeError, OSError):
            if not self._ready and self._conn.poll(0):
                # A failed factory answers the handshake with its traceback
                # and exits: report that (WorkerError), not the closed pipe.
                self._recv()
                self._ready = True
            raise WorkerCrashed(
                "worker process is gone; cannot submit "
                f"(exitcode={self._process.exitcode})"
            ) from None

    def result(self) -> Any:
        """Receive the reply to the oldest un-collected :meth:`submit`."""
        if not self._ready:
            self._recv()  # the ready handshake (or the factory's error)
            self._ready = True
        return self._recv()

    def call(self, command: str, payload: Any = None) -> Any:
        """``submit`` + ``result`` in one step."""
        self.submit(command, payload)
        return self.result()

    def close(self) -> None:
        """Shut the worker down (idempotent; terminates if it lingers)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self._process.join(timeout=5)
        if self._process.is_alive():  # pragma: no cover - hang safety net
            self._process.terminate()
            self._process.join(timeout=5)
        self._conn.close()

    def __enter__(self) -> "ProcessActor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def broadcast(
    actors: Iterable[ProcessActor], command: str, payloads: Optional[Sequence[Any]] = None
) -> List[Any]:
    """Send one command to every actor, then collect all replies.

    All actors compute concurrently (submits complete before the first
    result is awaited).  ``payloads`` gives each actor its own payload;
    omitted, every actor receives ``None``.
    """
    actors = list(actors)
    if payloads is None:
        payloads = [None] * len(actors)
    for actor, payload in zip(actors, payloads):
        actor.submit(command, payload)
    return [actor.result() for actor in actors]
