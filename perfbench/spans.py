"""Span tracer that wraps bentchain's layer functions from outside.

Each boundary is a function defined in a bentchain module.  Installing the
tracer rebinds every module attribute that holds that function object (for
example both ``bentchain.chain.build_hamiltonian`` and the copy
``bentchain.optimize`` imported), so calls made between modules are traced
without editing the package.  A boundary that no longer exists is reported
as absent.

Spans are kept in memory as (name, parent, start, end) columns and written
out at the end; a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import json
import sys
import warnings
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = -1


def _count_phase_evals(c, args, kwargs, out):
    eigvals, _, times = args[:3]
    c["kernels.end_probability_curve.phase_evals"] += np.size(times) * np.size(eigvals)


def _count_first_arrival(c, args, kwargs, out):
    times = args[0]
    c["propagate.first_arrival.grid_points"] += len(times)
    c["propagate.first_arrival.window_end_hits"] += int(out.t_star == float(times[-1]))


def _count_amplitudes(c, args, kwargs, out):
    c["propagate.evolve.amplitudes"] += out.amplitudes.size


def _count_golden(c, args, kwargs, out):
    c["search.golden_max.evals"] += out[2]


def _count_optimize(c, args, kwargs, out):
    c["optimize.optimize_detuning.evaluations"] += out.evaluations
    c["optimize.optimize_detuning.on_boundary"] += int(out.on_boundary)


def _count_cli_bytes(c, args, kwargs, out):
    argv = list(args[0]) if args else list(kwargs.get("argv") or [])
    try:
        run_dir = Path(argv[argv.index("--out") + 1]) / argv[0] / argv[argv.index("--label") + 1]
    except (ValueError, IndexError):
        return
    if run_dir.is_dir():
        c["cli.main.bytes_written"] += sum(f.stat().st_size for f in run_dir.iterdir())


# (span name, defining module, attribute, counter); order is report order
BOUNDARIES = [
    ("cli.main", "bentchain.cli", "main", _count_cli_bytes),
    ("optimize.detuning_curve", "bentchain.optimize", "detuning_curve", None),
    ("optimize.optimize_expanding", "bentchain.optimize", "_optimize_expanding", None),
    ("optimize.optimize_detuning", "bentchain.optimize", "optimize_detuning", _count_optimize),
    ("metrics.sweep_kappa", "bentchain.metrics", "sweep_kappa", None),
    ("metrics.sweep_alpha", "bentchain.metrics", "sweep_alpha", None),
    ("metrics.transfer_metrics", "bentchain.metrics", "transfer_metrics", None),
    ("metrics.fit_gaussian", "bentchain.metrics", "fit_gaussian", None),
    ("metrics.fit_linear", "bentchain.metrics", "fit_linear", None),
    ("reference.calibrate_protocol1", "bentchain.reference", "calibrate_protocol1", None),
    ("reference.reference", "bentchain.reference", "reference", None),
    ("spectral.spectrum_report", "bentchain.spectral", "spectrum_report", None),
    ("photonic.design_layout", "bentchain.photonic", "design_layout", None),
    ("photonic.parasitic_check", "bentchain.photonic", "parasitic_check", None),
    ("propagate.evolve", "bentchain.propagate", "evolve", _count_amplitudes),
    ("propagate.first_arrival", "bentchain.propagate", "_first_maximum", _count_first_arrival),
    ("search.golden_max", "bentchain.search", "golden_max", _count_golden),
    ("chain.build_hamiltonian", "bentchain.chain", "build_hamiltonian", None),
    ("kernels.end_probability_curve", "bentchain.kernels", "end_probability_curve", _count_phase_evals),
    ("kernels.end_probability", "bentchain.kernels", "end_probability", None),
]

SPAN_NAMES = [b[0] for b in BOUNDARIES]
RESIDUAL_SPAN = "trace.eigen_residual"

# per-layer counters beyond calls and self time, with their units
COUNTERS = {
    "chain.eigen_residual_max": "omega0",
    "kernels.end_probability_curve.phase_evals": "count",
    "propagate.first_arrival.grid_points": "count",
    "propagate.first_arrival.window_end_hits": "count",
    "propagate.evolve.amplitudes": "count",
    "search.golden_max.evals": "count",
    "optimize.optimize_detuning.evaluations": "count",
    "optimize.optimize_detuning.on_boundary": "count",
    "optimize.evals_per_point": "count",
    "optimize.detuning_curve.expansion_rounds": "count",
    "reference.calibrate_protocol1.boundary_warnings": "count",
    "cli.main.bytes_written": "bytes",
}


class Tracer:
    def __init__(self):
        self.names = SPAN_NAMES + [RESIDUAL_SPAN]
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self._stack = [ROOT]
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.broken_counters: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, counter):
        tracer, name_id = self, self._ids[name]
        counters = self.counters
        if name == "chain.build_hamiltonian":
            residual_id = self._ids[RESIDUAL_SPAN]

            def traced(*args, **kwargs):
                idx = tracer._open(name_id)
                try:
                    ham = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                # outside the build span, in a span of its own
                residual = getattr(ham, "eigen_residual", None)
                if residual is None:
                    tracer.broken_counters.add("chain.build_hamiltonian")
                    return ham
                ridx = tracer._open(residual_id)
                try:
                    res = residual()
                finally:
                    tracer._close(ridx)
                if res > counters["chain.eigen_residual_max"]:
                    counters["chain.eigen_residual_max"] = res
                return ham

        elif name == "reference.calibrate_protocol1":

            def traced(*args, **kwargs):
                idx = tracer._open(name_id)
                try:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        out = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                counters["reference.calibrate_protocol1.boundary_warnings"] += len(caught)
                return out

        else:

            def traced(*args, **kwargs):
                idx = tracer._open(name_id)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                if counter is not None:
                    try:
                        counter(counters, args, kwargs, out)
                    except (AttributeError, IndexError, TypeError, ValueError):
                        # the boundary's signature changed: keep tracing,
                        # report the counter as broken
                        tracer.broken_counters.add(name)
                return out

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "bentchain" or n.startswith("bentchain."))]
        self.absent = []
        for name, module_name, attr, counter in BOUNDARIES:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None) if module is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches = []

    # -- analysis --------------------------------------------------------------

    def _arrays(self):
        names = np.asarray(self.span_name, dtype=np.int64)
        parents = np.asarray(self.span_parent, dtype=np.int64)
        dur = np.asarray(self.span_end) - np.asarray(self.span_start)
        return names, parents, dur

    def layer_metrics(self, traced_wall: float) -> dict[str, tuple[float, str]]:
        """Per-layer calls, self time and counters, plus the root span's self
        time (traced wall time outside every named span)."""
        names, parents, dur = self._arrays()
        child = np.zeros(dur.size)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = dur - child
        calls = np.bincount(names, minlength=len(self.names))
        self_by_name = np.bincount(names, weights=self_time, minlength=len(self.names))
        out: dict[str, tuple[float, str]] = {}
        for i, span in enumerate(SPAN_NAMES):
            out[f"{span}.calls"] = (int(calls[i]), "count")
            out[f"{span}.self_s"] = (float(self_by_name[i]), "s")

        opt = self._ids["optimize.optimize_detuning"]
        expanding = self._ids["optimize.optimize_expanding"]
        nested = int(np.sum((names == opt) & has_parent
                            & (names[np.where(has_parent, parents, 0)] == expanding)))
        n_expanding = int(calls[expanding])
        points = n_expanding + int(calls[opt]) - nested
        c = self.counters
        c["optimize.detuning_curve.expansion_rounds"] = nested - n_expanding
        evaluations = c["optimize.optimize_detuning.evaluations"]
        c["optimize.evals_per_point"] = evaluations / points if points else 0.0
        for key, unit in COUNTERS.items():
            out[key] = (c[key] if unit != "count" or key == "optimize.evals_per_point"
                        else int(c[key]), unit)
        root_self = traced_wall - float(dur[~has_parent].sum())
        out["trace.root_self_s"] = (root_self, "s")
        out["trace.root_self_frac"] = (root_self / traced_wall if traced_wall else 0.0, "fraction")
        out["trace.spans"] = (int(dur.size), "count")
        return out

    def dump(self, path: Path, meta: dict) -> None:
        names, parents, dur = self._arrays()
        start = np.asarray(self.span_start)
        t0 = float(start.min()) if start.size else 0.0
        payload = {
            **meta,
            "names": self.names,
            "absent": self.absent,
            "broken_counters": sorted(self.broken_counters),
            "columns": ["name", "parent", "start_s", "end_s"],
            "spans": [
                [int(n), int(p), round(s - t0, 9), round(e - t0, 9)]
                for n, p, s, e in zip(names, parents, start, self.span_end)
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
            fh.write("\n")
