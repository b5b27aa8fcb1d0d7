"""Span tracing of orbimirror's public functions, from outside the package.

``Tracer.install()`` replaces each function named in ``LAYERS`` with a
timing wrapper at every ``orbimirror.*`` module attribute (and class
attribute, for methods) that binds it, so calls between modules and
calls through a module's own globals are both seen: ``compute_box ->
validate_fan`` and ``MirrorMap.inverse -> multivar_invert`` become
child spans. ``restore()`` puts the original functions back.

A span is ``(id, name, start, end, parent id, job, size)``; spans are
kept in memory and written out by the caller. Time spent in functions
that are not wrapped counts toward the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
from fractions import Fraction
from time import perf_counter


def _i_terms(iseries) -> int:
    return sum(len(poly) for poly in iseries.coeffs.values())


def _series_terms(series) -> int:
    return sum(len(s.terms) for s in series)


def _order_ratio(lf, args, kwargs) -> Fraction:
    """Achieved / requested truncation order of a W^LF result."""
    requested = args[1] if len(args) > 1 else kwargs.get("order", 10)
    achieved = min(t.coefficient.order for t in lf.potential.terms)
    return achieved / Fraction(requested)


# layer -> wrapped functions (``Class.method`` for methods)
LAYERS = {
    "cli": ("main",),
    "fan": ("validate_fan", "compute_box", "is_gorenstein",
            "wall_curve_classes", "primitive_collections",
            "minimal_containing_cone", "star_subdivide_xbar"),
    "exact": ("smith_normal_form", "rank", "snf_kernel_basis",
              "integer_solve", "solve_unique", "det", "cone_coefficients",
              "cone_index", "lattice_generates"),
    "extended": ("build_extended", "keff_enumerate"),
    "mirror": ("i_function", "check_normalization", "mirror_map",
               "MirrorMap.inverse", "hori_vafa", "lf_superpotential",
               "extract_open_gw"),
    # the series kernels (products, series_pow, series_exp) are not
    # wrapped: their time is the self time of the substitution or
    # inversion that calls them
    "series": ("multivar_invert", "substitute", "lagrange_invert"),
    "crc": ("verify_crepant", "glue_charts", "pair_report",
            "continuation_wpn", "change_of_variables", "crc_exact_identities",
            "crc_numeric_samples", "crc_verify", "specialization_check"),
}

# span name -> (size metric, function of (return value, args, kwargs))
SIZES = {
    "fan.compute_box": ("fan.box.size", lambda out, a, k: len(out)),
    "extended.keff_enumerate": ("extended.keff.size", lambda out, a, k: len(out)),
    "mirror.i_function": ("mirror.ifunc.terms", lambda out, a, k: _i_terms(out)),
    "series.multivar_invert": ("series.invert.terms",
                               lambda out, a, k: _series_terms(out)),
    "mirror.lf_superpotential": ("order_ratio", _order_ratio),
}


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self, only: tuple[str, ...] | None = None):
        self.only = only        # span names to wrap; None wraps all of LAYERS
        self.spans: list[tuple] = []
        self.job = ""
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, ids, local, tracer = self.spans, self._ids, self._local, self
        sizer = SIZES.get(name, (None, None))[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            size = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if sizer is not None:
                    size = sizer(out, args, kwargs)
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, tracer.job, size))
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "orbimirror" or k.startswith("orbimirror.")]
        for layer, quals in LAYERS.items():
            mod = importlib.import_module(f"orbimirror.{layer}")
            for qual in quals:
                name = f"{layer}.{qual}"
                if self.only is not None and name not in self.only:
                    continue
                cls_name, _, attr = qual.rpartition(".")
                if cls_name:
                    owner = getattr(mod, cls_name)
                    orig = owner.__dict__[attr]
                    self._saved.append((owner, attr, orig))
                    setattr(owner, attr, self._wrap(name, orig))
                    continue
                orig = getattr(mod, attr)
                wrapper = self._wrap(name, orig)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._saved.append((m, key, orig))
                            setattr(m, key, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def summarize(spans: list[tuple]) -> dict[str, float]:
    """Per-layer numbers of one pass: calls, self time and sizes.

    Self time is a span's duration minus the time its child spans cover;
    children of one span run in its thread one after another, so that is
    the sum of their durations.
    """
    child_time: dict[int, float] = {}
    parent_of: dict[int, int | None] = {}
    name_of: dict[int, str] = {}
    for sid, name, t0, t1, parent, _job, _size in spans:
        parent_of[sid] = parent
        name_of[sid] = name
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    out: dict[str, float] = {"trace.spans": len(spans)}

    def add(key: str, value) -> None:
        out[key] = out.get(key, 0) + value

    for sid, name, t0, t1, parent, _job, size in spans:
        self_s = (t1 - t0) - child_time.get(sid, 0.0)
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", self_s)
        add(f"{name.split('.')[0]}.self_s", self_s)
        if size is not None:
            metric = SIZES[name][0]
            if metric == "order_ratio":
                out["order_ratio.min"] = min(out.get("order_ratio.min", size), size)
            else:
                add(metric, size)
        if name == "series.substitute":
            p = parent
            while p is not None and name_of[p] != "series.multivar_invert":
                p = parent_of[p]
            if p is not None:
                add("series.substitute.calls_in_invert", 1)
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median over passes of every metric seen in any pass (0 if absent)."""
    keys = set().union(*per_pass)
    return {k: statistics.median(p.get(k, 0) for p in per_pass) for k in keys}
