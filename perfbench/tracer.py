"""Span tracer that wraps misrecon's public functions from outside the package.

Each traced function is replaced, at every module attribute (and class
attribute) that binds it, by a wrapper that records one span per call. A
wrapper appends the call's start and end clock readings to a flat float
array of its own span name; nothing else happens on the call path, and the
arrays hold no objects the garbage collector must traverse. Parents, self
times and instance ids are reconstructed after the run: calls nest, so
sorting all spans by end time gives every parent after its children.
"""

from __future__ import annotations

import array
import inspect
import sys
import time
from dataclasses import dataclass, field

import numpy as np

_MARK = "__perfbench_span__"


@dataclass
class Binding:
    owner: object  # module or class
    attr: str
    original: object
    wrapper: object


@dataclass
class Spans:
    """All spans of a run, sorted by end time (children before parents)."""

    names: list[str]
    code: np.ndarray  # index into names
    start: np.ndarray
    end: np.ndarray


@dataclass
class Tracer:
    """Installs span wrappers over misrecon functions and policy methods.

    `functions` maps "module.attr" (module relative to the misrecon
    package) to a span name, and `methods` maps "module.Class.attr" the
    same way. Every binding of each target function in the loaded misrecon
    modules is found once, at construction, by identity, so names imported
    with `from ... import` (schemes.is_cover_free, reconstruct.run_scheme,
    ...) are wrapped too.
    """

    functions: dict[str, str]
    methods: dict[str, str] = field(default_factory=dict)
    names: list[str] = field(default_factory=list)
    buffers: list[array.array] = field(default_factory=list)
    bindings: list[Binding] = field(default_factory=list)

    def __post_init__(self):
        modules = _misrecon_modules()
        for target, span_name in self.functions.items():
            mod_name, attr = target.rsplit(".", 1)
            original = getattr(sys.modules[f"misrecon.{mod_name}"], attr)
            wrapper = self._wrap(original, span_name)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self.bindings.append(Binding(mod, name, original, wrapper))
        for target, span_name in self.methods.items():
            mod_name, cls_name, attr = target.rsplit(".", 2)
            cls = getattr(sys.modules[f"misrecon.{mod_name}"], cls_name)
            original = vars(cls)[attr]
            self.bindings.append(
                Binding(cls, attr, original, self._wrap(original, span_name))
            )

    def _wrap(self, fn, span_name: str):
        if span_name not in self.names:
            self.names.append(span_name)
            self.buffers.append(array.array("d"))
        record = self.buffers[self.names.index(span_name)].append
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            # a generator does its work while it is consumed, so the span
            # consumes it and hands back an iterator over the items
            def wrapper(*args, **kwargs):
                record(clock())
                try:
                    return iter(list(fn(*args, **kwargs)))
                finally:
                    record(clock())
        else:
            def wrapper(*args, **kwargs):
                record(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    record(clock())

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        setattr(wrapper, _MARK, span_name)
        return wrapper

    def install(self) -> None:
        for b in self.bindings:
            setattr(b.owner, b.attr, b.wrapper)

    def uninstall(self) -> None:
        for b in self.bindings:
            setattr(b.owner, b.attr, b.original)

    def spans(self) -> Spans:
        codes, starts, ends = [], [], []
        for code, buf in enumerate(self.buffers):
            pairs = np.frombuffer(buf, dtype=np.float64).reshape(-1, 2)
            codes.append(np.full(len(pairs), code, dtype=np.int16))
            starts.append(pairs[:, 0])
            ends.append(pairs[:, 1])
        code = np.concatenate(codes)
        start = np.concatenate(starts)
        end = np.concatenate(ends)
        # by end time; on a tie the later start (the inner call) first
        order = np.lexsort((-start, end))
        return Spans(list(self.names), code[order], start[order], end[order])


def _misrecon_modules() -> list:
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "misrecon" or name.startswith("misrecon."))
    ]


def wrapped_bindings() -> list[str]:
    """Attributes of misrecon's modules and their classes that hold a span
    wrapper; empty whenever no tracer is installed."""
    found = []
    for mod in _misrecon_modules():
        for attr, value in vars(mod).items():
            owners = [(attr, value)]
            if isinstance(value, type) and value.__module__ == mod.__name__:
                owners.extend((f"{attr}.{a}", v) for a, v in vars(value).items())
            found.extend(
                f"{mod.__name__}.{name}" for name, v in owners
                if getattr(v, _MARK, None) is not None
            )
    return found


@dataclass
class Analysis:
    """Per-name span statistics of a traced run.

    `incl[name]` lists the durations of spans without an ancestor of the
    same name; `self_total[name]` sums self time (duration minus the time
    its direct children cover) over all spans of that name; `parent[i]` is
    the index of span i's parent or -1, and `instance[i]` the traced
    instance span i ran in. `unattributed` is the share of instance wall
    time that no top-level span covers.
    """

    incl: dict[str, list[float]]
    self_total: dict[str, float]
    parent: list[int]
    instance: np.ndarray
    unattributed: float


def analyse(spans: Spans, instances: list[tuple[float, float]]) -> Analysis:
    """Link spans into call trees inside each (start, end) instance window."""
    names = spans.names
    incl: dict[str, list[float]] = {name: [] for name in names}
    self_total = {name: 0.0 for name in names}
    n = len(spans.code)
    parent = [-1] * n
    inst_of = np.searchsorted(
        np.array([s for s, _ in instances]), spans.start, side="right"
    ) - 1
    code = spans.code.tolist()
    start = spans.start.tolist()
    end = spans.end.tolist()
    child_time = [0.0] * n
    ancestors = [0] * n  # bitmask of span-name codes above each span
    covered = 0.0
    bounds = np.searchsorted(inst_of, np.arange(len(instances) + 1), side="left")
    for k in range(len(instances)):
        lo, hi = int(bounds[k]), int(bounds[k + 1])
        stack: list[int] = []
        for i in range(lo, hi):
            t0 = start[i]
            while stack and start[stack[-1]] >= t0:
                c = stack.pop()
                parent[c] = i
                child_time[i] += end[c] - start[c]
            stack.append(i)
        covered += sum(end[i] - start[i] for i in stack)
        for i in range(hi - 1, lo - 1, -1):
            p = parent[i]
            if p >= 0:
                ancestors[i] = ancestors[p] | 1 << code[p]
            name = names[code[i]]
            dur = end[i] - start[i]
            self_total[name] += dur - child_time[i]
            if not ancestors[i] >> code[i] & 1:
                incl[name].append(dur)
    wall = sum(e - s for s, e in instances)
    unattributed = (wall - covered) / wall if wall > 0 else 0.0
    return Analysis(incl, self_total, parent, inst_of, unattributed)


def tail_percentile(values) -> tuple[float, float]:
    """(level, value) of the highest of p99.9/p99/p90 with >= 10 samples beyond it.

    Falls back to the median (level 50) when there are too few samples for
    any of them.
    """
    n = len(values)
    if n == 0:
        return 50.0, 0.0
    for level in (99.9, 99.0, 90.0):
        if n * (1 - level / 100) >= 10:
            return level, float(np.quantile(values, level / 100))
    return 50.0, float(np.median(values))
