"""The inline executor: the service's own submitting thread does the work."""

from __future__ import annotations

from typing import Optional

from repro.cluster.base import Executor


class InlineExecutor(Executor):
    """Detect and explain every chunk synchronously on the submitting thread.

    The engine does all the work inside ``submit()``, against its shared
    caches, so this executor holds no threads, no queues and no state:
    ``submit()`` returns with the chunk's alarms already explained and
    recorded.  It is the default, and the baseline the process executor's
    reports are checked against.
    """

    name = "inline"

    def drain(self, timeout: Optional[float] = None) -> bool:
        return True  # nothing is ever in flight

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Nothing to release: the service stops accepting chunks itself."""
