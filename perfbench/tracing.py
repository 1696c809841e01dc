"""Spans around calls into splitstab's public functions.

The benchmark, not the program, records the spans: ``Tracer.install``
replaces every public function of every layer module in every module
namespace that binds it (``transfer_matrix`` is bound in ``kernel``,
``stability`` and ``cli``; ``instability_witness`` in ``stability`` and
``analysis``), plus the CLI's subcommand handlers, whose self time is the
formatting and writing the CLI does around the library.  Spans (name,
start, end, parent) are kept in flat in-memory arrays and written out once
at the end; self times are derived from them.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

#: Package modules timed as layers; ``rng`` is too small to time.
LAYERS = ("schemes", "kernel", "stability", "analysis", "dynamics", "svgplot", "cli")


def _out_bytes(args, kwargs, result) -> int:
    """Bytes of the files a CLI handler was asked to write."""
    ns = args[0]
    paths = [getattr(ns, "out", None), getattr(ns, "svg", None)]
    return sum(Path(p).stat().st_size for p in paths if p and Path(p).is_file())


#: Counts taken at a boundary from a call's arguments and result (the
#: CLI handlers count the bytes they wrote).
COUNTERS = {
    "stability.instability_witness": lambda a, kw, r: int(r is not None),
    "stability.scan_region": lambda a, kw, r: len(r.verdicts),
    "analysis.three_stage_sweep": lambda a, kw, r: (len(r), sum(x.exceptional for x in r)),
    "analysis.optimality_spotcheck": lambda a, kw, r: (r.trials, r.coincidence_skips,
                                                       len(r.failures)),
    "dynamics.integrate_model": lambda a, kw, r: r.n_steps,
    "dynamics.integrate_general": lambda a, kw, r: (r.states.shape[1] // 2, r.n_steps),
}


def _is_handler(layer: str, attr: str) -> bool:
    return layer == "cli" and attr.startswith("_cmd_")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget recorded spans and counts (names and patches stay)."""
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, list[tuple[int, object]]] = defaultdict(list)
        self._stack = [-1]

    def wrap(self, name: str, fn, counter=None):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if counter is not None:
                self.counts[name].append((idx, counter(args, kwargs, result)))
            return result

        traced.__traced__ = True
        return traced

    def install(self, package) -> None:
        """Wrap the layers' public functions wherever they are bound."""
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__traced__", False) or isinstance(obj, type):
                    continue
                public = not attr.startswith("_") and callable(obj) and (
                    getattr(obj, "__module__", None) == mod.__name__)
                if not (public or _is_handler(layer, attr)):
                    continue
                name = f"{layer}.{attr}"
                counter = _out_bytes if _is_handler(layer, attr) else COUNTERS.get(name)
                wrapper = self.wrap(name, obj, counter)
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is obj:
                            self._patches.append((ns, bound, value))
                            setattr(ns, bound, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            ns, bound, value = self._patches.pop()
            setattr(ns, bound, value)

    # -- derived quantities -------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the time its child spans cover."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return dur - child

    def summary(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, total self seconds)."""
        ids = np.frombuffer(self.name, dtype=np.int32)
        calls = np.bincount(ids, minlength=len(self.names))
        self_s = np.bincount(ids, weights=self.self_times(), minlength=len(self.names))
        return {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(self.names)
                if calls[i]}

    def write_spans(self, path: Path) -> None:
        """One CSV row per span; times in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            for i, (nid, s, e, p) in enumerate(zip(self.name, self.start, self.end, self.parent)):
                fh.write(f"{i},{self.names[nid]},{s - t0:.9f},{e - t0:.9f},{p}\n")
