"""Per-layer tracing from outside the package.

``Tracer.install`` replaces stable public functions of qbound with timing
wrappers, in every ``qbound`` module namespace that binds them, so calls
the package makes internally (``bound_report`` calling ``holevo_chi``, a
Monte Carlo loop calling ``haar_state``) are timed too. Each call is a
span (name, start, end, parent). A span's self time is its duration minus
the time covered by its child spans; calls run on one thread, so the
children of a span never overlap.

Names are resolved from ``qbound`` at run time. A name that no longer
exists is reported as absent with the reason, never as an error, so the
traced run survives refactors that fold or delete helpers. Only entry
points the roadmap keeps are traced (``sww_rhs``, not ``sww_rhs_forms``).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# Layer (module) and public function name of every traced entry point.
TRACED = (
    ("qobjects", "random_instance"),
    ("qobjects", "apply_measurement"),
    ("qobjects", "coarse_grain"),
    ("infomeasures", "mutual_information"),
    ("infomeasures", "info_gain_f"),
    ("infomeasures", "holevo_chi"),
    ("infomeasures", "subentropy"),
    ("bounds", "dual_holevo_rhs"),
    ("bounds", "sww_rhs"),
    ("bounds", "eqx_rhs"),
    ("bounds", "spectrum_identity_deviation"),
    ("bounds", "saturation_predicates"),
    ("bounds", "bound_report"),
    ("matrixcore", "sqrt_psd"),
    ("haarmc", "trial_rng"),
    ("haarmc", "haar_state"),
    ("haarmc", "uniform_ensemble_info_mc"),
    ("haarmc", "distorted_moments_mc"),
    ("haarmc", "uniform_ensemble_info_exact"),
    ("accinfo", "maximize_mutual_info"),
    ("accinfo", "two_state_reference"),
    ("scenarios", "run_scenario"),
    ("scenarios", "emit_report"),
)

# Spans kept for the span file; stats aggregate every span.
MAX_SPANS = 50_000

LAYERS = ("qobjects", "infomeasures", "bounds", "matrixcore", "haarmc",
          "accinfo", "scenarios")

# Work counted at a boundary, from the call's bound arguments.
_COUNTERS = {
    "apply_measurement": lambda a: a["ensemble"].size * a["measurement"].size,
    "maximize_mutual_info": lambda a: a["budget"],
    "uniform_ensemble_info_mc": lambda a: a["trials"],
    "distorted_moments_mc": lambda a: a["trials"],
}


class Stat:
    __slots__ = ("calls", "total", "self_time", "work", "uncounted")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.work = 0
        self.uncounted = False  # the counter could not read the arguments


class Tracer:
    """Span recorder. ``spans`` keeps the first ``MAX_SPANS`` spans as
    (name, start, end, parent index); ``stats`` aggregates all of them."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.absent: dict[str, str] = {}
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    def _wrap(self, name, fn, counter):
        stat = self.stat(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # frame: [child time, span index]
            frame = [0.0, -1]
            if len(spans) < MAX_SPANS:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stat.calls += 1
                stat.total += dur
                stat.self_time += dur - frame[0]
                parent = -1
                if stack:
                    stack[-1][0] += dur
                    parent = stack[-1][1]
                if frame[1] >= 0:
                    spans[frame[1]] = (name, start, end, parent)
                if counter:
                    try:
                        bound = sig.bind(*args, **kwargs)
                        bound.apply_defaults()
                        stat.work += counter(bound.arguments)
                    except (TypeError, KeyError, AttributeError):
                        stat.uncounted = True
        return wrapper

    def install(self):
        """Wrap every traced name in each loaded qbound module."""
        import qbound
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "qbound" or k.startswith("qbound."))]
        for layer, fname in TRACED:
            name = f"{layer}.{fname}"
            original = getattr(qbound, fname, None)
            if original is None:
                self.absent[name] = f"qbound.{fname} no longer exists"
                continue
            wrapper = self._wrap(name, original, _COUNTERS.get(fname))
            for mod in modules:
                if getattr(mod, fname, None) is original:
                    self._patched.append((mod, fname, original))
                    setattr(mod, fname, wrapper)

    def uninstall(self):
        for mod, fname, original in reversed(self._patched):
            setattr(mod, fname, original)
        self._patched.clear()

    def layer_self(self) -> dict[str, float]:
        """Self time in seconds of each layer, summed over its spans."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, st in self.stats.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += st.self_time
        return out
