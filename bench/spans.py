"""In-memory spans, self-time arithmetic and reversible patching.

A span is ``(name, start, end, parent)``: ``parent`` is the index of the
span that was open when this one began, or -1 at top level.  The tracer
keeps spans in parallel lists while the run executes; nothing is written
until the run ends.  A span's self time is its duration minus the part
of its interval that its child spans cover.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict


class Tracer:
    """Records nested spans and free-form notes in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.notes: dict[str, list] = defaultdict(list)
        self._open: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(float("nan"))
        self._open.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._open.pop()

    def wrap(self, name: str, fn, note=None):
        """fn with a span around each call; note(args, kwargs) is kept."""
        tracer = self

        def traced(*args, **kwargs):
            if note is not None:
                tracer.notes[name].append(note(args, kwargs))
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def spans(self) -> list[tuple[str, float, float, int]]:
        return list(zip(self.names, self.starts, self.ends, self.parents))


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals.

    Children are clipped to the parent's interval and overlapping
    children are counted once, so the result is never negative.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        run_lo = run_hi = None
        for c_lo, c_hi in sorted(children.get(idx, ())):
            c_lo, c_hi = max(c_lo, start), min(c_hi, end)
            if c_hi <= c_lo:
                continue
            if run_hi is None or c_lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = c_lo, c_hi
            else:
                run_hi = max(run_hi, c_hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append((end - start) - covered)
    return out


class Patches:
    """Attribute replacements that ``undo`` puts back in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._saved:
            owner, name, old = self._saved.pop()
            setattr(owner, name, old)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.undo()
        return False


def public_callables(module):
    """(owner, attr, span name, raw attribute) for every public function
    defined in ``module`` and every public method of its public classes."""
    short = module.__name__.rsplit(".", 1)[-1]
    for name, obj in list(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, f"{short}.{name}", obj
        elif inspect.isclass(obj):
            for meth, raw in list(vars(obj).items()):
                if meth.startswith("_"):
                    continue
                if inspect.isfunction(raw) or isinstance(
                        raw, (classmethod, staticmethod)):
                    yield obj, meth, f"{short}.{obj.__name__}.{meth}", raw


def traced_attribute(tracer: Tracer, name: str, raw, note=None):
    """The traced replacement for a function, classmethod or staticmethod."""
    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(tracer.wrap(name, raw.__func__, note))
    return tracer.wrap(name, raw, note)
