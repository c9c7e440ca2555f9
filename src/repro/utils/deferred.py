"""Deferred-error collection for work that fails off the calling thread.

Completion callbacks, alarm listeners and shard collector loops must never
die on an exception — but the exception must not vanish either.  The pattern
the serving stack uses everywhere is: capture the error into a bounded
store, keep going, and let the next ``drain()``/``close()`` on the calling
thread re-raise it.  :class:`DeferredErrors` is that store, shared by the
service engine and the process-shard executor so the two cannot drift.
"""

from __future__ import annotations

import threading

from repro.exceptions import ServiceBackendError


class DeferredErrors:
    """A thread-safe store of exceptions to re-raise later.

    The *first* recorded error is the diagnostic that matters (it is the
    root cause; everything after is usually fallout), so it is held
    separately and can never be evicted; later errors are only counted.
    """

    def __init__(self) -> None:
        self._first: Exception | None = None
        self._extra = 0
        self._lock = threading.Lock()

    def add(self, error: Exception) -> None:
        """Record one captured exception."""
        with self._lock:
            if self._first is None:
                self._first = error
            else:
                self._extra += 1

    def raise_first(self, context: str) -> None:
        """Re-raise the first recorded error (as :class:`ServiceBackendError`).

        No-op when nothing was recorded.  The store is emptied either way,
        so one failure is reported exactly once.  A recorded error that is
        already a :class:`ServiceBackendError` is raised as-is when it is
        the only one; anything else is wrapped with ``context``.
        """
        with self._lock:
            if self._first is None:
                return
            first, extra = self._first, self._extra
            self._first, self._extra = None, 0
        if isinstance(first, ServiceBackendError) and not extra:
            raise first
        suffix = f" (+{extra} more)" if extra else ""
        raise ServiceBackendError(f"{context}: {first!r}{suffix}") from first
