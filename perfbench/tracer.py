"""In-memory span recorder that wraps public functions of the program.

The benchmark measures the program from outside: a traced run replaces a
chosen set of functions and methods with thin wrappers that record one span
per call — name, start, end, parent span and operation id — and restores the
originals afterwards.  Self time (a span's duration minus the part of it
covered by child spans) is accumulated per layer while the spans are
recorded, so the per-layer split needs no second pass over the spans.

Only synchronous functions are wrapped, so spans nest strictly even when an
asyncio loop dispatches them: a span opened inside a callback is closed
before the callback returns.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Tuple

#: Name of the root span the benchmark opens around each traced unit.
ROOT = "bench.unit"


class Tracer:
    """Records spans and per-layer self time for wrapped callables.

    ``points`` maps a layer name to a list of ``(owner, attribute)`` pairs;
    ``owner`` is a class or a module.  Wrappers are installed by
    :meth:`installed` and removed when its block exits.
    """

    def __init__(self) -> None:
        self.span_names: List[str] = [ROOT]
        self.span_layers: List[str] = ["bench"]
        self._index: Dict[str, int] = {ROOT: 0}
        self.self_s: List[float] = [0.0]
        self.calls: List[int] = [0]
        self.op = 0
        self._next_id = 1
        # Sentinel frame: [span id, time covered by children].
        self._stack: List[list] = [[0, 0.0]]
        self.clear_spans()

    def clear_spans(self) -> None:
        """Drop recorded spans (self-time totals are kept)."""
        self.col_name = array("i")
        self.col_start = array("d")
        self.col_end = array("d")
        self.col_parent = array("q")
        self.col_op = array("i")
        self.col_id = array("q")

    def reset_totals(self) -> None:
        """Zero the per-span self-time and call totals."""
        self.self_s = [0.0] * len(self.span_names)
        self.calls = [0] * len(self.span_names)

    def _name_index(self, name: str, layer: str) -> int:
        index = self._index.get(name)
        if index is None:
            index = self._index[name] = len(self.span_names)
            self.span_names.append(name)
            self.span_layers.append(layer)
            self.self_s.append(0.0)
            self.calls.append(0)
        return index

    def _enter(self) -> list:
        sid = self._next_id
        self._next_id = sid + 1
        frame = [sid, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, index: int, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        parent = stack[-1]
        parent[1] += duration
        self.self_s[index] += duration - frame[1]
        self.calls[index] += 1
        self.col_name.append(index)
        self.col_start.append(start)
        self.col_end.append(end)
        self.col_parent.append(parent[0])
        self.col_op.append(self.op)
        self.col_id.append(frame[0])

    def wrap(self, fn, name: str, layer: str):
        """A traced stand-in for ``fn`` recording span ``name``."""
        index = self._name_index(name, layer)
        enter = self._enter
        leave = self._exit
        clock = perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame, index, start, clock())

        return traced

    @contextmanager
    def span(self, name: str = ROOT, layer: str = "bench") -> Iterator[None]:
        """Record a span around the block (the benchmark's root spans)."""
        index = self._name_index(name, layer)
        frame = self._enter()
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(frame, index, start, perf_counter())

    @contextmanager
    def installed(self, points: Dict[str, List[Tuple[object, str]]]) -> Iterator[None]:
        """Wrap every point for the duration of the block."""
        undo: List[Tuple[object, str, object, bool]] = []
        try:
            for layer, targets in points.items():
                for owner, attr in targets:
                    raw = inspect.getattr_static(owner, attr)
                    owned = attr in vars(owner)
                    label = (
                        owner.__name__.rsplit(".", 1)[-1] + "." + attr
                    )
                    if isinstance(raw, staticmethod):
                        patched = staticmethod(self.wrap(raw.__func__, label, layer))
                    else:
                        patched = self.wrap(raw, label, layer)
                    setattr(owner, attr, patched)
                    undo.append((owner, attr, raw, owned))
            yield
        finally:
            for owner, attr, raw, owned in reversed(undo):
                if owned:
                    setattr(owner, attr, raw)
                else:
                    delattr(owner, attr)

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds summed per layer."""
        totals: Dict[str, float] = {}
        for layer, seconds in zip(self.span_layers, self.self_s):
            totals[layer] = totals.get(layer, 0.0) + seconds
        return totals

    def layer_calls(self) -> Dict[str, int]:
        """Span counts summed per layer."""
        totals: Dict[str, int] = {}
        for layer, calls in zip(self.span_layers, self.calls):
            totals[layer] = totals.get(layer, 0) + calls
        return totals

    def dump(self, path: str, env: dict) -> int:
        """Write the recorded spans as a ``.npz`` archive; returns the count.

        Columns: ``id``, ``name`` (index into ``names``), ``layer`` per name,
        ``start``/``end`` (``perf_counter`` seconds), ``parent`` (span id,
        0 = no parent) and ``op`` (operation id of the traced unit).
        """
        import json

        import numpy as np

        np.savez(
            path,
            id=np.frombuffer(self.col_id, dtype=np.int64),
            name=np.frombuffer(self.col_name, dtype=np.int32),
            start=np.frombuffer(self.col_start, dtype=np.float64),
            end=np.frombuffer(self.col_end, dtype=np.float64),
            parent=np.frombuffer(self.col_parent, dtype=np.int64),
            op=np.frombuffer(self.col_op, dtype=np.int32),
            names=np.array(self.span_names),
            layers=np.array(self.span_layers),
            env=np.array(json.dumps(env, sort_keys=True)),
        )
        return len(self.col_id)
