"""Per-module span tracing of the ptdilate public API, from outside the package.

``Tracer.install`` wraps every function named in a ptdilate module's
``__all__`` and puts the wrapper at every module attribute that refers to
the original function, found by identity.  That catches re-exports such as
``from .numkit import expm`` in ``dilation``, ``simulator`` and ``pulse``,
or ``simulate_pt`` inside ``cli``.  Nothing under ``src/`` changes.

Spans nest: each wrapper pushes a frame, and on exit credits its whole
wall time, bookkeeping included, to the caller's frame as child time.  A
module's self time is the sum over its spans of (span duration - time
covered by child spans), so no time is counted twice and the wrappers' own
bookkeeping lands in no module; it shows in the traced-minus-untraced
overhead.

Counters are keyed ``<module>.<function>.calls`` / ``.s`` (inclusive
seconds), ``<module>.self_s`` and ``<module>.errors`` (exceptions leaving
the module, counted once at the outermost span of that module), plus the
work counters that the hooks below read from arguments and results.
"""

from __future__ import annotations

import functools
import inspect
import math
from collections import defaultdict
from time import perf_counter

import numpy as np


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _expm(stats, mins, args, kwargs, result):
    shape = np.shape(_arg(args, kwargs, 0, "a"))
    stats["numkit.expm.matrices"] += math.prod(shape[:-2])


def _evolve_dilated(stats, mins, args, kwargs, result):
    low = float(np.min(result.success_prob))
    mins["simulator.success_prob.min"] = min(
        mins.get("simulator.success_prob.min", math.inf), low
    )


def _simulate_lab_frame(stats, mins, args, kwargs, result):
    stats["pulse.lab_steps"] += result.grid.n_nodes - 1


def _noisy_p0_curve(stats, mins, args, kwargs, result):
    out = np.atleast_1d(result)
    stats["readout.points"] += out.size
    stats["readout.nan_points"] += int(np.count_nonzero(np.isnan(out)))


def _analytic_p0(stats, mins, args, kwargs, result):
    stats["ptmodel.analytic_p0.points"] += np.size(_arg(args, kwargs, 1, "t"))


def _make_fit_r_hook(fitkit, fn):
    default_range = inspect.signature(fn).parameters["r_range"].default

    def hook(stats, mins, args, kwargs, result):
        r_range = args[1] if len(args) > 1 else kwargs.get("r_range", default_range)
        lo, hi = (float(v) for v in r_range)
        step = fitkit.GRID_STEP
        if result.r_exp - lo <= step or hi - result.r_exp <= step:
            stats["fitkit.boundary_hits"] += 1

    return hook


class Tracer:
    """Span tracer over the public functions of the given ptdilate modules.

    ``modules`` maps the short module name (``"numkit"``) to the module
    object.  Counters accumulate in ``stats`` (sums) and ``mins`` (minima)
    until ``reset``.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.stats: defaultdict[str, float] = defaultdict(float)
        self.mins: dict[str, float] = {}
        self._stack: list[tuple[str, list[float]]] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats.clear()
        self.mins.clear()

    def _hook(self, key: str, fn):
        if key == "fitkit.fit_r":
            return _make_fit_r_hook(self.modules["fitkit"], fn)
        return {
            "numkit.expm": _expm,
            "simulator.evolve_dilated": _evolve_dilated,
            "pulse.simulate_lab_frame": _simulate_lab_frame,
            "readout.noisy_p0_curve": _noisy_p0_curve,
            "ptmodel.analytic_p0": _analytic_p0,
        }.get(key)

    def _wrap(self, module: str, name: str, fn):
        key = f"{module}.{name}"
        hook = self._hook(key, fn)
        stack, stats, mins = self._stack, self.stats, self.mins

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = perf_counter()
            children = [0.0]
            stack.append((module, children))
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                span = end - start
                stats[key + ".calls"] += 1
                stats[key + ".s"] += span
                stats[module + ".self_s"] += span - children[0]
                if not ok and (not stack or stack[-1][0] != module):
                    stats[module + ".errors"] += 1
                if ok and hook is not None:
                    hook(stats, mins, args, kwargs, result)
                if stack:
                    stack[-1][1][0] += perf_counter() - entered
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short, mod in self.modules.items():
            for name in mod.__all__:
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(short, name, obj))
        for mod in self.modules.values():
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    def snapshot(self) -> dict[str, float]:
        """Counters so far, with derived ratios and minima filled in."""
        out = dict(self.stats)
        points = out.get("readout.points", 0)
        out["readout.nan_frac"] = out.get("readout.nan_points", 0) / points if points else 0.0
        # No evolved trajectory means no post-selected shots were kept.
        out.update(self.mins)
        out.setdefault("simulator.success_prob.min", 0.0)
        return out
