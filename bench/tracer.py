"""In-memory span tracer that wraps clarkekit's public functions from outside.

The tracer replaces each traced function with a wrapper in every clarkekit
module namespace that holds it, because callers such as ``cli`` and
``simulate`` bind names with ``from .x import ...``; methods are wrapped on
their class.  Every call records one span (name, start, end, parent) in flat
arrays, plus the work counts its arguments or result imply.  Self time is a
span's duration minus the durations of its direct children; spans nest
strictly because the workloads are single-threaded.
"""

from __future__ import annotations

import functools
import gzip
import os
import sys
import time
from array import array

import numpy as np


def _size(value) -> int:
    return int(np.size(value))


# Traced call sites: (module, qualified name, {quantity: count(args, result)}).
TRACED = [
    ("core", "transform_pair", {}),
    ("core", "arc_forward_matrix", {}),
    ("core", "to_arc", {}),
    ("designs", "builtin_designs", {}),
    ("designs", "design_report", {}),
    ("sampling", "sample_clarke_disk", {}),
    ("sampling", "sample_joints", {"draws": lambda args, result: result.shape[0]}),
    ("retarget", "make_transfer_map", {}),
    ("retarget", "TransferMap.apply",
     {"vectors": lambda args, result: _size(args[1]) // args[0].source.n}),
    ("retarget", "perturbation_analysis", {"points": lambda args, result: len(result)}),
    ("trajectory", "plan_trajectory", {}),
    ("trajectory", "peak_abs", {}),
    ("trajectory", "evaluate", {"points": lambda args, result: _size(args[1])}),
    ("simulate", "desired_stream", {}),
    ("simulate", "run", {"ticks": lambda args, result: result.t.size}),
    ("fileio", "write_csv", {"bytes": lambda args, result: os.path.getsize(args[0])}),
    ("fileio", "write_json", {}),
    ("fileio", "sha256_file", {}),
    ("cli", "cmd_demo", {}),
]


class Tracer:
    """Records spans of the traced functions while installed and active."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.name_ids: array = array("i")
        self.starts: array = array("d")
        self.ends: array = array("d")
        self.parents: array = array("q")
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self._restore: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, object] = {}

    def _wrap(self, name: str, func, quantities: dict):
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            index = len(self.starts)
            self.name_ids.append(name_id)
            self.parents.append(self.stack[-1] if self.stack else -1)
            self.ends.append(0.0)
            self.stack.append(index)
            self.starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                self.ends[index] = clock()
                self.stack.pop()
            for quantity, count in quantities.items():
                key = f"{name}.{quantity}"
                self.counts[key] = self.counts.get(key, 0) + count(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Swap every traced function for its wrapper, wherever it is bound."""
        modules = [module for key, module in list(sys.modules.items())
                   if key == "clarkekit" or key.startswith("clarkekit.")]
        for module_name, qualname, quantities in TRACED:
            owner = sys.modules[f"clarkekit.{module_name}"]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            func = owner.__dict__[attr]
            name = f"{module_name}.{qualname}"
            if name not in self._wrappers:
                self._wrappers[name] = self._wrap(name, func, quantities)
            wrapper = self._wrappers[name]
            if path:
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is func:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Total self time per traced name, in seconds."""
        starts = np.frombuffer(self.starts, dtype=float)
        durations = np.frombuffer(self.ends, dtype=float) - starts
        parents = np.frombuffer(self.parents, dtype=np.int64)
        names = np.frombuffer(self.name_ids, dtype=np.int32)
        child = np.zeros_like(durations)
        nested = parents >= 0
        np.add.at(child, parents[nested], durations[nested])
        own = np.bincount(names, weights=durations - child, minlength=len(self.names))
        return dict(zip(self.names, own.tolist()))

    def call_counts(self) -> dict[str, int]:
        calls = np.bincount(np.frombuffer(self.name_ids, dtype=np.int32),
                            minlength=len(self.names))
        return dict(zip(self.names, calls.tolist()))

    def write_spans(self, path) -> None:
        """Gzipped CSV of every span: name, start_s, end_s, parent index."""
        origin = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt") as handle:
            handle.write("index,name,start_s,end_s,parent\n")
            for index, (name_id, start, end, parent) in enumerate(
                    zip(self.name_ids, self.starts, self.ends, self.parents)):
                handle.write(f"{index},{self.names[name_id]},{start - origin:.9f},"
                             f"{end - origin:.9f},{parent}\n")
