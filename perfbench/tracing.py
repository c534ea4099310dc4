"""Per-layer spans recorded from outside the program.

``Tracer`` replaces public functions of the coopsat modules with timing
wrappers, at the module attribute where each caller looks the name up:
``harness`` imports most layer functions by name, ``scheduling`` calls
``metrics.total_se`` through the module, and ``network`` calls
``hybrid_from_beamspace`` from its own namespace.  The wrappers are
installed on ``__enter__`` and the original objects are put back on
``__exit__``, so an untraced run never sees them.

Each span's self time is its duration minus the durations of the spans
it directly encloses.  Spans of the same name accumulate.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass
from pathlib import Path

from coopsat import config, harness, metrics, network, scheduling


def _scheme_span(args, kwargs) -> str:
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "")
    return f"scheduling.greedy.{scheduling.SchemeMode.parse(mode).value}"


def _emitted_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


# (module, attribute, span name or callable(args, kwargs) -> name,
#  optional callable(result) -> bytes).
PATCH_POINTS = (
    (config, "from_dict", "config.load", None),
    (harness, "build_epoch_instance", "harness.build", None),
    (harness, "emit", "harness.emit", _emitted_bytes),
    (harness, "propagate", "geometry.propagate", None),
    (harness, "visibility", "geometry.visibility", None),
    (harness, "link_geometry", "geometry.link_geometry", None),
    (harness, "path_loss", "channel.path_loss", None),
    (harness, "sample_ray_angles", "channel.rays", None),
    (harness, "small_scale", "channel.small_scale", None),
    (harness, "analog_beamform", "beamforming.analog", None),
    (harness, "greedy_schedule", _scheme_span, None),
    (harness, "user_metrics", "metrics.user_metrics", None),
    (scheduling, "greedy_schedule", _scheme_span, None),
    (scheduling, "exhaustive_schedule", "scheduling.exhaustive", None),
    (scheduling, "final_beams", "scheduling.final_beams", None),
    (scheduling, "hybrid_beams", "network.hybrid_beams", None),
    (network, "hybrid_from_beamspace", "beamforming.zf", None),
    (metrics, "total_se", "metrics.total_se", None),
    (metrics, "user_metrics", "metrics.user_metrics", None),
)


@dataclass
class SpanStats:
    self_s: float = 0.0
    total_s: float = 0.0
    calls: int = 0
    bytes: int = 0


class Tracer:
    """Collects span statistics while installed (``with tracer:``)."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[list] = []  # [name, start, child seconds]
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module, attr, name, measure in PATCH_POINTS:
            if not hasattr(module, attr):  # renamed or removed: layer reads 0
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, measure))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        """A manually opened span, e.g. the root span of one unit of work."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _open(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _close(self, nbytes: int = 0) -> None:
        name, start, child_s = self._stack.pop()
        duration = time.perf_counter() - start
        stats = self.stats.setdefault(name, SpanStats())
        stats.self_s += duration - child_s
        stats.total_s += duration
        stats.calls += 1
        stats.bytes += nbytes
        if self._stack:
            self._stack[-1][2] += duration

    def _wrap(self, fn, name, measure):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name if isinstance(name, str) else name(args, kwargs))
            nbytes = 0
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    nbytes = measure(result)
                return result
            finally:
                self._close(nbytes)
        return wrapper

