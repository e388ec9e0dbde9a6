"""Layer-by-layer timing of the multiprompt program, taken from outside it.

Nothing in ``src/`` is edited.  Three hook points suffice:

* ``multiprompt.engines`` binds the model functions by name, so replacing
  ``multiprompt.engines.<fn>`` times the model functions as the engines
  call them;
* ``model.py`` and ``training.py`` call every kernel through the
  ``multiprompt.kernels`` module attribute, so replacing
  ``multiprompt.kernels.<fn>`` times every kernel call;
* ``train_step`` looks up ``training_forward_backward`` and ``sgd_update``
  as module globals, so replacing them on ``multiprompt.training`` times
  the two training phases.

Model components (``encoder_self`` ... ``other``) are timed by
:class:`TimedSink`, a ``CounterSink`` subclass passed as ``sink=``: the
program opens a ``sink.scope(label)`` around each component, and the
subclass charges wall time to whichever label is innermost.

Spans are aggregated as they close (total, self time, calls per span
name) instead of being kept one by one: a decode op makes thousands of
kernel calls, and the aggregate is all the per-layer metrics need.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

from multiprompt import engines, kernels, training
from multiprompt.kernels import COMPONENTS, CounterSink

MODEL_FUNCTIONS = ("encode_batch", "init_decode_state", "decoder_prefill", "decoder_step")
FORWARD_KERNELS = (
    "matmul", "bmm", "softmax_rows", "layer_norm", "add", "scale", "relu", "gather_rows",
)
BACKWARD_KERNELS = (
    "softmax_rows_backward", "layer_norm_backward", "relu_backward", "scatter_add_rows",
)
TRAINING_PHASES = {"training_forward_backward": "forward_backward", "sgd_update": "sgd_update"}


class TimedSink(CounterSink):
    """Counts exactly like ``CounterSink`` and also times each component.

    ``component_s[label]`` is the wall time spent while ``label`` was the
    innermost open scope.  Kernel calls made outside any scope are counted
    as ``"other"`` by the program; :class:`Tracer` charges their time to
    ``"other"`` as well, so time and counts cover the same calls.
    """

    def __init__(self) -> None:
        super().__init__()
        self.component_s = dict.fromkeys(COMPONENTS, 0.0)
        self._open: list[str] = []
        self._since = 0.0

    @property
    def in_scope(self) -> bool:
        return bool(self._open)

    def _charge(self) -> None:
        now = perf_counter()
        if self._open:
            self.component_s[self._open[-1]] += now - self._since
        self._since = now

    @contextmanager
    def scope(self, component: str):
        with super().scope(component):
            self._charge()
            self._open.append(component)
            try:
                yield self
            finally:
                self._charge()
                self._open.pop()


class Tracer:
    """Installs timing wrappers at the layer boundaries and aggregates spans.

    ``totals[span] = [seconds, self_seconds, calls]``.  A span's self time
    is its duration minus the time of the spans it directly encloses, so
    a model function's self time is its glue outside kernels and the
    engine's self time is its lockstep loop outside model functions.
    """

    def __init__(self) -> None:
        self.sink: TimedSink | None = None
        self.totals: dict[str, list] = {}
        self._stack: list[list[float]] = []
        self._patches = []
        for name in MODEL_FUNCTIONS:
            self._add_patch(engines, name, f"model.{name}")
        for name in FORWARD_KERNELS + BACKWARD_KERNELS:
            self._add_patch(kernels, name, f"kernels.{name}", kernel=True)
        for name, phase in TRAINING_PHASES.items():
            self._add_patch(training, name, f"training.{phase}")

    def _add_patch(self, module, attr: str, span: str, kernel: bool = False) -> None:
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            self._stack.append([perf_counter(), 0.0])
            try:
                return original(*args, **kwargs)
            finally:
                seconds = self._close(span)
                if kernel and not self.sink.in_scope:
                    self.sink.component_s["other"] += seconds

        self._patches.append((module, attr, original, wrapper))

    def reset(self, sink: TimedSink) -> None:
        """Start a new op whose kernels count into ``sink``."""
        self.sink = sink
        self.totals = {}
        self._stack = []

    def call(self, span: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``span``."""
        self._stack.append([perf_counter(), 0.0])
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _close(self, span: str) -> float:
        start, child_seconds = self._stack.pop()
        seconds = perf_counter() - start
        if self._stack:
            self._stack[-1][1] += seconds
        cell = self.totals.setdefault(span, [0.0, 0.0, 0])
        cell[0] += seconds
        cell[1] += seconds - child_seconds
        cell[2] += 1
        return seconds

    def span(self, name: str) -> tuple[float, float, int]:
        """(seconds, self seconds, calls) of a span in the current op."""
        return tuple(self.totals.get(name, (0.0, 0.0, 0)))

    @contextmanager
    def installed(self):
        """Route the program's layer calls through the wrappers for one block."""
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)
