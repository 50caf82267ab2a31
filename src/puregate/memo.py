"""A bounded map that makes what it lacks: least recently used out first.

One policy serves the process-wide memos (wasm_inspect's decoded headers,
wasmvm's tier-2 translations, attestation's issued records): each value is
a pure function of its key, so a hit may stand in for making it again, and
the bound keeps a long-lived process from holding every key it has ever
seen. Like the gate's cache, a memo is for one thread.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

_ABSENT = object()


class BoundedMemo:
    """At most maxsize values by key, kept in order of last use."""

    __slots__ = ("maxsize", "hits", "misses", "_values")

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._values: dict[Hashable, Any] = {}  # in order of last use

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key: Hashable) -> bool:
        """Whether key is held; recency is left as it is."""
        return key in self._values

    def get(self, key: Hashable, make: Callable[..., Any], *args: Any) -> Any:
        """The value of key, from make(*args) on a miss; either way key
        becomes the most recently used, and a miss at the bound evicts the
        least. A make that raises keeps nothing. (make takes its arguments
        here, not in a closure, so that a hit builds no function.)"""
        values = self._values
        value = values.pop(key, _ABSENT)
        if value is _ABSENT:
            self.misses += 1
            value = make(*args)
            if len(values) >= self.maxsize:
                del values[next(iter(values))]
        else:
            self.hits += 1
        values[key] = value
        return value

    def clear(self) -> None:
        self._values.clear()
        self.hits = 0
        self.misses = 0
