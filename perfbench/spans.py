"""Span tracing of sgosc's layers from outside the package.

`Tracer.install` replaces the public functions of each layer (module
attributes and class methods) by wrappers that record one span per call:
name, start, end, parent span and a work count.  Nothing inside `src/` is
edited; `uninstall` puts the originals back.  Spans stay in memory in flat
arrays and are written once, at the end, by `save`.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np


def _fft_size(args, kwargs, result):
    return float(np.size(args[0])) if args else 0.0


def _jet_batch(args, kwargs, result):
    return float(result.c.shape[1])


def _len_pairs(args, kwargs, result):
    return float(len(args[1]))


def _quad_cells(args, kwargs, result):
    nd = len(args[1])
    return float(result[2]) / 15.0**nd  # 15 Kronrod nodes per axis per cell


def _wf_cells(args, kwargs, result):
    return float(len(result.cells))


FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
)


def layer_targets():
    """(span name, owner, attribute, work counter) for every wrapped entry
    point.  Owners are modules or classes; a function that other sgosc
    modules imported by name is also replaced there (see `install`)."""
    import numpy.fft
    import scipy.fft
    from sgosc import catalog, jets, oscint, phase, regularize, symbols, wavefront, windows

    out = [
        ("jets.mul", jets.Jet, "__mul__", _jet_batch),
        ("jets.compose", jets.Jet, "compose", _jet_batch),
        ("symbols.elliptic_at", symbols, "elliptic_at", None),
        ("symbols.side_grid", symbols, "side_grid", None),
        ("phase.check_admissible", phase, "check_admissible", None),
        ("phase.build_mphi_grid", phase, "build_mphi_grid", _len_pairs),
        ("phase.build_spphi_grid", phase, "build_spphi_grid", _len_pairs),
        ("catalog.oracle", catalog, "kg_mphi_oracle", None),
        ("catalog.oracle", catalog, "kg_spphi_oracle", None),
        ("catalog.distance", catalog, "kg_mphi_distance", None),
        ("catalog.distance", catalog, "kg_spphi_distance", None),
        ("regularize.apply_jet", regularize.RegularizerP, "apply_jet", None),
        ("regularize.component_jets", regularize.RegularizerP, "component_jets", None),
        ("oscint.eval_pairing", oscint, "eval_pairing", None),
        ("oscint.direct_quadrature", oscint, "direct_quadrature", None),
        ("oscint.adaptive_tensor", oscint, "adaptive_tensor", _quad_cells),
        ("windows.logradial", windows, "logradial_window", None),
        ("windows.gaussian", windows, "gaussian_window", None),
        ("wavefront.wf_scan", wavefront, "wf_scan", _wf_cells),
        ("wavefront.fit", wavefront, "fit_decay_exponent", None),
        ("wavefront.fit", wavefront, "octave_maxima", None),
        ("synth.values", wavefront.EvaluableDistribution, "values", None),
    ]
    for mod in (numpy.fft, scipy.fft):
        out += [("wavefront.fft", mod, n, _fft_size) for n in FFT_NAMES if hasattr(mod, n)]
    return out


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack: list = []
        self._restore: list = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _recorder(self, name, work=None):
        """call(f, args, kwargs) runs f inside a span named `name`."""
        nid = self._id(name)
        name_id, parent, start, end, wk, stack = (
            self.name_id, self.parent, self.start, self.end, self.work, self._stack
        )
        clock = time.perf_counter

        def call(f, args, kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(clock())
            end.append(0.0)
            wk.append(0.0)
            stack.append(idx)
            try:
                result = f(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if work is not None:
                wk[idx] = work(args, kwargs, result)
            return result

        return call

    def wrap(self, name, fn, work=None):
        call = self._recorder(name, work)
        if name == "oscint.adaptive_tensor":
            # the integrand gets its own span: bookkeeping is the self time
            integrand = self._recorder("oscint.integrand")

            @functools.wraps(fn)
            def traced_quad(f, *args, **kwargs):
                g = lambda X: integrand(f, (X,), {})
                return call(fn, (g,) + args, kwargs)

            return traced_quad

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(fn, args, kwargs)

        return traced

    def install(self):
        mods = [m for n, m in list(sys.modules.items()) if n.startswith("sgosc")]
        for name, owner, attr, work in layer_targets():
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig, work)
            holders = [owner] + [m for m in mods if m is not owner and getattr(m, attr, None) is orig]
            for h in holders:
                self._restore.append((h, attr, orig))
                setattr(h, attr, wrapped)

    def uninstall(self):
        for h, attr, orig in reversed(self._restore):
            setattr(h, attr, orig)
        self._restore.clear()

    def mark(self) -> int:
        """Span index where the next recorded interval starts."""
        return len(self.name_id)

    def table(self, lo: int = 0, hi: int | None = None) -> dict:
        """Per span name over spans [lo, hi): calls, total (inclusive) and
        self seconds, and the summed work count."""
        hi = len(self.name_id) if hi is None else hi
        nid = np.array(self.name_id, dtype=np.int64)[lo:hi]
        par = np.array(self.parent, dtype=np.int64)[lo:hi] - lo
        dur = (np.array(self.end)[lo:hi] - np.array(self.start)[lo:hi])
        work = np.array(self.work)[lo:hi]
        inside = par >= 0
        child = np.bincount(par[inside], weights=dur[inside], minlength=len(dur))
        self_t = dur - child[: len(dur)]
        out = {}
        for i, name in enumerate(self.names):
            sel = nid == i
            out[name] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(self_t[sel].sum()),
                "work": float(work[sel].sum()),
            }
        return out

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int64),
            start=np.array(self.start),
            end=np.array(self.end),
            work=np.array(self.work),
        )


# metric: (unit, better, span name, span field).  Metrics with a span are
# that field summed over the traced rounds, per round; the others are
# derived in layer_metrics.
PER_LAYER = {
    "jets.mul_calls": ("count", "lower", "jets.mul", "calls"),
    "jets.mul_self_s": ("s", "lower", "jets.mul", "self_s"),
    "jets.mul_ns_per_point": ("ns", "lower", None, None),
    "jets.compose_calls": ("count", "lower", "jets.compose", "calls"),
    "jets.compose_self_s": ("s", "lower", "jets.compose", "self_s"),
    "symbols.elliptic_at_calls": ("count", "lower", "symbols.elliptic_at", "calls"),
    "symbols.elliptic_at_self_s": ("s", "lower", "symbols.elliptic_at", "self_s"),
    "symbols.side_grid_self_s": ("s", "lower", "symbols.side_grid", "self_s"),
    "phase.check_admissible_s": ("s", "lower", None, None),
    "phase.mphi_cells": ("count", "higher", "phase.build_mphi_grid", "work"),
    "phase.mphi_ms_per_cell": ("ms", "lower", None, None),
    "phase.spphi_cells": ("count", "higher", "phase.build_spphi_grid", "work"),
    "phase.spphi_ms_per_cell": ("ms", "lower", None, None),
    "catalog.oracle_calls": ("count", "lower", "catalog.oracle", "calls"),
    "catalog.oracle_self_s": ("s", "lower", "catalog.oracle", "self_s"),
    "catalog.distance_calls": ("count", "lower", "catalog.distance", "calls"),
    "catalog.distance_self_s": ("s", "lower", "catalog.distance", "self_s"),
    "regularize.apply_jet_calls": ("count", "lower", "regularize.apply_jet", "calls"),
    "regularize.apply_jet_self_s": ("s", "lower", "regularize.apply_jet", "self_s"),
    "regularize.component_jets_self_s": ("s", "lower", "regularize.component_jets", "self_s"),
    "oscint.quad_cells": ("count", "lower", "oscint.adaptive_tensor", "work"),
    "oscint.quad_rounds": ("count", "lower", "oscint.integrand", "calls"),
    "oscint.integrand_s": ("s", "lower", "oscint.integrand", "total_s"),
    "oscint.bookkeeping_s": ("s", "lower", "oscint.adaptive_tensor", "self_s"),
    "windows.logradial_calls": ("count", "lower", "windows.logradial", "calls"),
    "windows.logradial_self_s": ("s", "lower", "windows.logradial", "self_s"),
    "windows.gaussian_calls": ("count", "lower", "windows.gaussian", "calls"),
    "windows.gaussian_self_s": ("s", "lower", "windows.gaussian", "self_s"),
    "wavefront.cells": ("count", "higher", "wavefront.wf_scan", "work"),
    "wavefront.fft_calls": ("count", "lower", "wavefront.fft", "calls"),
    "wavefront.fft_points": ("count", "lower", "wavefront.fft", "work"),
    "wavefront.fft_s": ("s", "lower", "wavefront.fft", "self_s"),
    "wavefront.fit_self_s": ("s", "lower", "wavefront.fit", "self_s"),
    "wavefront.scan_self_s": ("s", "lower", "wavefront.wf_scan", "self_s"),
    "synth.values_s": ("s", "lower", "synth.values", "total_s"),
    "trace.overhead_s": ("s", "lower", None, None),
}

_NO_SPANS = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0.0}


def layer_metrics(rounds_table: dict, rounds: int, setup_table: dict) -> dict:
    """Per-layer figures of the traced rounds, per round, from their span
    table; phase.check_admissible_s is per set-up, from the set-up's table.
    trace.overhead_s is left to the caller."""
    def span(name):
        return rounds_table.get(name, _NO_SPANS)

    def per_work(name, field, scale):
        t = span(name)
        return scale * t[field] / t["work"] if t["work"] else 0.0

    m = {
        name: span(src)[field] / rounds
        for name, (_, _, src, field) in PER_LAYER.items()
        if src is not None
    }
    m["jets.mul_ns_per_point"] = per_work("jets.mul", "self_s", 1e9)
    m["phase.mphi_ms_per_cell"] = per_work("phase.build_mphi_grid", "total_s", 1e3)
    m["phase.spphi_ms_per_cell"] = per_work("phase.build_spphi_grid", "total_s", 1e3)
    m["phase.check_admissible_s"] = setup_table.get("phase.check_admissible", _NO_SPANS)["total_s"]
    return m
