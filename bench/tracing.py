"""Spans around calls into momentkit's public functions and numpy.linalg.

The package is not instrumented; while a ``Tracer`` is entered as a
context manager, every module binding of each listed function is
replaced by a wrapper that times the call as a span.  Rebinding matters because
``from .structure import build_hankel`` copies the name into
``inversion`` and ``markov``: patching only the defining module would
miss those calls.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter_ns

import numpy.linalg

# (defining module, function) pairs; the span name drops the package prefix
LAYER_FUNCTIONS = (
    ("momentkit.transform", "exp_transform"),
    ("momentkit.structure", "build_hankel"),
    ("momentkit.structure", "numeric_rank"),
    ("momentkit.structure", "solvable"),
    ("momentkit.structure", "analyze"),
    ("momentkit.inversion", "invert_min_degree"),
    ("momentkit.inversion", "companion_coefficients"),
    ("momentkit.inversion", "next_moment"),
    ("momentkit.inversion", "extend_moments"),
    ("momentkit.markov", "markov_certificate"),
    ("momentkit.markov", "weights"),
    ("momentkit.trig", "trig_invert"),
    ("momentkit.cli", "main"),
)
LINALG_FUNCTIONS = ("svd", "eigvals", "solve", "lstsq")

SPAN_NAMES = tuple(f"{mod.rsplit('.', 1)[1]}.{fn}" for mod, fn in LAYER_FUNCTIONS) + tuple(
    f"linalg.{fn}" for fn in LINALG_FUNCTIONS
)


class Tracer:
    """Per-layer call counts and self times while entered.

    Each wrapped call is a span whose parent is the innermost span still
    open.  Spans are reduced to per-name totals as they close, which keeps
    memory flat over a run of a million spans: a span's self time is its
    duration minus the durations of its direct children.
    """

    def __init__(self):
        self.totals = {name: [0, 0] for name in SPAN_NAMES}
        self._open: list[int] = []  # child time of each open span, innermost last
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        total = self.totals[name]
        open_ = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                children = open_.pop()
                if open_:
                    open_[-1] += duration
                total[0] += 1
                total[1] += duration - children

        return traced

    def __enter__(self):
        """Rebind every momentkit module attribute that refers to a listed
        function, and the numpy.linalg entry points."""
        targets = {}
        for mod_name, fn_name in LAYER_FUNCTIONS:
            fn = getattr(sys.modules[mod_name], fn_name)
            targets[id(fn)] = self._wrap(f"{mod_name.rsplit('.', 1)[1]}.{fn_name}", fn)
        for fn_name in LINALG_FUNCTIONS:
            fn = getattr(numpy.linalg, fn_name)
            targets[id(fn)] = self._wrap(f"linalg.{fn_name}", fn)
            self._patch(numpy.linalg, fn_name, targets[id(fn)])
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "momentkit" and not mod_name.startswith("momentkit."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in targets and value is not targets[id(value)]:
                    self._patch(mod, attr, targets[id(value)])
        return self

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def layer_totals(self):
        """{span name: (calls, self ns)}."""
        return {name: tuple(v) for name, v in self.totals.items()}
