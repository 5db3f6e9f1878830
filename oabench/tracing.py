"""Span tracer over the public functions of oalab's modules.

Every function named in a layer module's ``__all__`` is wrapped, and the
wrapper is bound in place of the original in *every* ``oalab`` module that
holds it: a call such as ``suites`` -> ``matrix_power_r`` goes through the
name ``suites`` imported, so patching only the defining module would miss
it.  Methods and private helpers are not wrapped; their time counts as
self time of the public function that called them.

Each call records ``(function, start, end, parent span, finished)`` in
memory.  Self time is a span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from collections import Counter

import numpy as np

# The layers, bottom to top.
MODULES = (
    "matcore",
    "cone",
    "calculus",
    "support",
    "spectral",
    "algebra",
    "ocpmap",
    "domar",
    "examples",
    "suites",
)
QUOTIENT_NORM = "algebra.quotient_norm"


class Tracer:
    def __init__(self):
        self.names: list = []  # function id -> "module.function"
        self.spans: list = []  # (function id, start, end, parent span, finished)
        self.statuses: Counter = Counter()  # statuses returned by quotient_norm
        self._stack = [-1]
        self._restore: list = []

    def install(self) -> None:
        """Bind a recording wrapper over every public layer function."""
        holders = [m for name, m in sys.modules.items() if name == "oalab" or name.startswith("oalab.")]
        for module_name in MODULES:
            module = importlib.import_module(f"oalab.{module_name}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not isinstance(fn, types.FunctionType) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{module_name}.{attr}", fn)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapper)
                            self._restore.append((holder, key, fn))

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._restore):
            setattr(holder, key, fn)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        statuses = self.statuses if name == QUOTIENT_NORM else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            finished = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                finished = True
            finally:
                spans[index] = (fid, start, clock(), parent, finished)
                stack.pop()
            if statuses is not None:
                statuses[result.status] += 1
            return result

        return wrapper

    def duration(self, index: int) -> float:
        _, start, end, _, _ = self.spans[index]
        return end - start

    def arrays(self) -> dict:
        table = np.array(self.spans, dtype=float).reshape(-1, 5)
        return {
            "function": table[:, 0].astype(np.int64),
            "start": table[:, 1],
            "end": table[:, 2],
            "parent": table[:, 3].astype(np.int64),
            "finished": table[:, 4].astype(bool),
        }

    def metrics(self) -> dict:
        """Calls, self time and errors per function and per module."""
        spans = self.arrays()
        fid, parent = spans["function"], spans["parent"]
        duration = spans["end"] - spans["start"]
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=duration[nested], minlength=len(fid))
        count = len(self.names)
        calls = np.bincount(fid, minlength=count)
        self_s = np.bincount(fid, weights=duration - child_time, minlength=count)
        errors = np.bincount(fid, weights=(~spans["finished"]).astype(float), minlength=count)
        out: dict = {}
        for module in MODULES:
            out[f"{module}.calls"] = out[f"{module}.self_s"] = out[f"{module}.errors"] = 0
        for i, name in enumerate(self.names):
            module = name.split(".")[0]
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
            out[f"{module}.calls"] += int(calls[i])
            out[f"{module}.self_s"] += float(self_s[i])
            out[f"{module}.errors"] += int(errors[i])
        done = sum(self.statuses.values())
        # With no quotient norms computed, none was left inconclusive.
        out[f"{QUOTIENT_NORM}.certified_ratio"] = self.statuses["CERTIFIED"] / done if done else 1.0
        return out

    def write(self, path, provenance: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), provenance=json.dumps(provenance), **self.arrays())
