"""A bounded map that makes what it lacks: least recently used out first.

One policy serves the process-wide memos (wasm_inspect's decoded headers,
type entries and import records, wasmvm's compile handles, attestation's
issued records, interpreter's record frames, keyed by the marshal bytes of
a record's other members): each value is a pure function of its key, so a
hit may stand in for making it again, and the bound keeps a long-lived
process from holding every key it has ever seen. A memo is safe for
threads: one lock guards its own updates, and make runs outside it, as
functools' pure-Python lru_cache does. Two threads that miss on one key may
then both make, and the value stored first is kept and returned to both.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Hashable

_ABSENT = object()


class BoundedMemo:
    """At most maxsize values by key, kept in order of last use."""

    __slots__ = ("maxsize", "hits", "misses", "_values", "_lock")

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._values: dict[Hashable, Any] = {}  # in order of last use
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._values)

    def get(self, key: Hashable, make: Callable[..., Any], *args: Any) -> Any:
        """The value of key, from make(*args) on a miss; either way key
        becomes the most recently used, and a miss at the bound evicts the
        least. A make that raises keeps nothing. (make takes its arguments
        here, not in a closure, so that a hit builds no function.)"""
        values = self._values
        lock = self._lock
        # acquire and release, not a with block: a hit takes about 0.28 us
        # rather than 0.48 us (CPython 3.11, 2-vCPU Xeon host)
        lock.acquire()
        try:
            value = values.pop(key, _ABSENT)
            if value is not _ABSENT:
                self.hits += 1
                values[key] = value
                return value
            self.misses += 1
        finally:
            lock.release()
        value = make(*args)
        lock.acquire()
        try:
            # another thread may have stored key while make ran: keep its value
            value = values.pop(key, value)
            if len(values) >= self.maxsize:
                del values[next(iter(values))]
            values[key] = value
        finally:
            lock.release()
        return value

    def clear(self) -> None:
        with self._lock:
            self._values.clear()
            self.hits = 0
            self.misses = 0
