"""Per-layer tracing from outside the library.

`Spans` wraps public entry points of `tuhyper` wherever they are bound,
including the names other modules imported, and records each call as a span
with its self time (its duration minus the spans it caused).  `CallCounter`
is a profile hook that counts interpreted calls per module.  Both are
installed only for the traced passes; end-to-end figures never come from a
traced pass.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# Entry points timed as spans; each reports `<module>.<function>.s`, except
# `extract_witness` (wrapped to count its steps) and `quasi.conflicts` (calls).
SPAN_TARGETS = (
    ("core", "load_instance"),
    ("core", "overlapping_proper_edges"),
    ("detect", "find_odd_cycle"),
    ("detect", "find_mixed_odd_cycle"),
    ("detect", "find_odd_tree_house"),
    ("detect", "find_mixed_odd_tree_house"),
    ("detect", "verify_witness"),
    ("linalg", "max_abs_subdet"),
    ("linalg", "batch_det_exact"),
    ("linalg", "_eulerian_selections"),
    ("extract", "find_eulerian_core"),
    ("extract", "almost_nice_cycle"),
    ("extract", "reduce_by_cycle"),
    ("extract", "lift_odd_cycle"),
    ("extract", "lift_tree_house"),
    ("extract", "extract_witness"),
    ("quasi", "conflicts"),
)
GENERATORS = {"linalg._eulerian_selections"}
REPORTED_SECONDS = tuple(f"{m}.{f}" for m, f in SPAN_TARGETS
                         if f not in ("extract_witness", "conflicts"))
REPORTED_CALLS = ("detect.verify_witness", "quasi.conflicts")
MAX_ORDER = 11  # rows + cols <= 22 bounds every square submatrix's order
COUNTED_MODULES = ("core", "detect", "linalg", "extract", "quasi", "mixed")


def _tuhyper_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if (name == "tuhyper" or name.startswith("tuhyper.")) and m is not None]


class Spans:
    """Span recorder; install() patches the library, uninstall() restores it."""

    def __init__(self):
        self.stack: list[list[float]] = []
        self.pending: dict[str, float] = defaultdict(float)  # raw self seconds
        self.seconds: dict[str, float] = defaultdict(float)  # calibrated self seconds
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def _enter(self) -> None:
        self.stack.append([time.perf_counter(), 0.0])

    def _exit(self, name: str) -> None:
        start, child = self.stack.pop()
        dur = time.perf_counter() - start
        self.pending[name] += dur - child
        self.counts[name + ".calls"] += 1
        if self.stack:
            self.stack[-1][1] += dur

    def _observe(self, name: str, args, result) -> None:
        if name == "linalg.batch_det_exact":
            b, order = args[0].shape[:2]
            self.counts[f"linalg.dets.order{order}"] += b
        elif name == "extract.extract_witness":
            self.counts["extract.steps"] += len(result.trace)

    def _wrap(self, name: str, f):
        if name in GENERATORS:
            def gen_wrapper(*args, **kwargs):
                it = f(*args, **kwargs)
                while True:
                    self._enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit(name)
                    self.counts[name + ".yielded"] += 1
                    yield item
            return gen_wrapper

        def wrapper(*args, **kwargs):
            self._enter()
            try:
                result = f(*args, **kwargs)
            finally:
                self._exit(name)
            self._observe(name, args, result)
            return result
        return wrapper

    def install(self) -> None:
        modules = _tuhyper_modules()
        by_short = {m.__name__.rpartition(".")[2]: m for m in modules}
        for mod, fname in SPAN_TARGETS:
            original = getattr(by_short[mod], fname)
            wrapper = self._wrap(f"{mod}.{fname}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, attr, value))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, value in reversed(self._patches):
            setattr(m, attr, value)
        self._patches.clear()

    def commit(self, factor: float) -> None:
        """Calibrate the self times recorded since the last commit."""
        for name, raw in self.pending.items():
            self.seconds[name] += raw * factor
        self.pending.clear()


class CallCounter:
    """Profile hook counting interpreted calls (generator resumptions
    included) into each `tuhyper` module."""

    def __init__(self):
        self.files = {m.__file__: m.__name__.rpartition(".")[2] for m in _tuhyper_modules()
                      if getattr(m, "__file__", None)}
        self.counts: Counter = Counter()

    def _hook(self, frame, event, arg) -> None:
        if event == "call":
            mod = self.files.get(frame.f_code.co_filename)
            if mod is not None:
                self.counts[mod] += 1

    def __enter__(self):
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
