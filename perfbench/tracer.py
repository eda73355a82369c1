"""In-memory span tracer that wraps ionpulse functions where they are looked up.

A function imported by name (``from .pulse import drive_frequency``) is looked
up in the importing module's globals at call time, so the tracer replaces the
attribute on that module (``ionpulse.optimizer.drive_frequency``) and leaves
the package's source untouched. Every wrapped call records a span with its
layer name, start, end and parent span. Spans stay in memory until the
benchmark turns them into metrics.

A name that no longer exists (a later refactor removed or renamed it) is not
an error: its layer records zero calls and the name is listed in ``missing``.
A counter that can no longer read a call's arguments or result lists the
name in ``uncounted`` instead of failing the call.
"""

import importlib
import inspect
import time
from dataclasses import dataclass, field

_MISSING = object()


@dataclass
class Span:
    layer: str
    start: float
    end: float = 0.0
    parent: "Span" = None
    child_s: float = 0.0  # time covered by direct child spans
    outermost: bool = True  # no enclosing span of the same layer

    @property
    def duration(self):
        return self.end - self.start


@dataclass
class LayerStats:
    calls: int = 0
    seconds: float = 0.0  # outermost spans of this layer only, so recursion is not double counted
    counters: dict = field(default_factory=dict)

    def add(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount


class Tracer:
    """Wraps named functions, records spans, and restores everything on close."""

    def __init__(self):
        self.spans = []
        self.layers = {}
        self.missing = []
        self.uncounted = []  # wrapped names whose counters could not read the call
        self._stack = []
        self._open = {}  # layer -> depth of currently open spans
        self._restore = []

    def stats(self, layer):
        return self.layers.setdefault(layer, LayerStats())

    def span(self, layer):
        return _SpanContext(self, layer)

    def wrap(self, qualified_name, layer, count=None):
        """Replace module attribute `qualified_name` with a traced wrapper.

        count(stats, args, result, error, span), when given, runs after every
        call and may add counters derived from it: args maps each parameter
        name to its value, defaults included; error is the exception the call
        raised, or None.
        """
        module_name, _, attr = qualified_name.rpartition(".")
        self.stats(layer)
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = _MISSING if module is None else getattr(module, attr, _MISSING)
        if original is _MISSING:
            self.missing.append(qualified_name)
            return
        signature = inspect.signature(original)

        def traced(*args, **kwargs):
            result = error = None
            with self.span(layer) as ctx:
                try:
                    result = original(*args, **kwargs)
                except Exception as exc:
                    error = exc
            if count is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    count(self.stats(layer), bound.arguments, result, error, ctx.span)
                except (KeyError, AttributeError, TypeError):
                    # the signature or result changed under a refactor: keep running, report it
                    if qualified_name not in self.uncounted:
                        self.uncounted.append(qualified_name)
            if error is not None:
                raise error
            return result

        traced.__wrapped__ = original
        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def close(self):
        """Put every wrapped attribute back."""
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


class _SpanContext:
    def __init__(self, tracer, layer):
        self.tracer = tracer
        self.layer = layer
        self.span = None

    def __enter__(self):
        tracer = self.tracer
        parent = tracer._stack[-1] if tracer._stack else None
        depth = tracer._open.get(self.layer, 0)
        self.span = Span(self.layer, time.perf_counter(), parent=parent, outermost=depth == 0)
        tracer._open[self.layer] = depth + 1
        tracer._stack.append(self.span)
        return self

    def __exit__(self, *exc_info):
        span = self.span
        span.end = time.perf_counter()
        tracer = self.tracer
        tracer._stack.pop()
        tracer._open[self.layer] -= 1
        if span.parent is not None:
            span.parent.child_s += span.duration
        stats = tracer.stats(self.layer)
        stats.calls += 1
        if span.outermost:
            stats.seconds += span.duration
        tracer.spans.append(span)
