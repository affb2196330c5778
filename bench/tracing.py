"""Per-layer tracing from outside the library.

The traced run swaps public callables, at the module attribute where the
caller looks them up, for wrappers that record a span and count the call:

    anacap.integrals.integrate_arc          quadrature.integrate
    anacap.integrals.circle_pair_integral   integrals.circle_pair
    anacap.solver.assemble_gram             integrals.assemble
    anacap.sublab.gamma_bounds              sublab.gamma
    BasisSet.eval_all (on each instance)    basis.eval

and replaces each ``gamma_bounds`` by its public stages (``validate_scene``,
``build_basis`` + ``BasisSet``, ``assemble_gram``, then ``upper_bound`` and
``lower_bound`` on a ``GramSystem``).  The two bound calls factor the Gram
matrix once each, where ``gamma_bounds`` factors it once in all, so
``solver.bounds_s`` counts two factorizations.  Assembly is bitwise
reproducible, so the staged bracket must equal ``gamma_bounds``' bracket
exactly.

A span is (name, start, end, parent span index, job index).  Spans stay in
memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import math
import time
from collections import Counter

import numpy as np

from anacap import geometry, integrals, solver, sublab
from anacap.basis import BasisSet, build_basis
from anacap.errors import SolveError
from anacap.quadrature import QuadratureSettings

KIND_NAMES = {geometry.Disk: "disk", geometry.Ellipse: "ellipse",
              geometry.Polygon: "polygon", geometry.ArcChain: "arc_chain"}

# span name -> per-layer time metric (calibrated seconds per job)
TIME_METRICS = {
    "geometry.validate": "geometry.validate_s",
    "basis.build": "basis.build_s",
    "basis.eval": "basis.eval_s",
    "quadrature.integrate": "quadrature.integrate_s",
    "integrals.assemble": "integrals.assemble_s",
    "solver.bounds": "solver.bounds_s",
    **{f"integrals.assemble.{k}": f"integrals.assemble_s.{k}" for k in KIND_NAMES.values()},
}
COUNT_METRICS = ("basis.n", "basis.eval_calls", "basis.eval_points", "quadrature.arc_calls",
                 "integrals.assemble_calls", "integrals.circle_pair_calls", "sublab.gamma_calls")
GRAM_SUM_RTOL = 1e-12


class Tracer:
    """Spans and per-job call counts of one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # (job, count name) -> total
        self.job: int | None = None
        self.muted = False  # wrappers pass calls straight through
        self.assembled: list = []  # (scene, basis set, gram) of the current job
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.job, name)] += n

    def wrap(self, fn, span_name: str, count_name: str, points: str | None = None):
        """``fn`` with a span and a call count; ``points`` also sums ``z.size``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.muted:
                return fn(*args, **kwargs)
            self.count(count_name)
            if points is not None:
                self.count(points, np.size(args[0]))
            with self.span(span_name):
                return fn(*args, **kwargs)
        return traced

    def staged_bounds(self, sc, schedule, settings: QuadratureSettings | None = None):
        """``gamma_bounds`` through its public stages, each in its own span."""
        settings = settings or QuadratureSettings()
        with self.span("geometry.validate"):
            sc = geometry.validate_scene(sc)
        with self.span("basis.build"):
            bs = BasisSet(build_basis(sc, schedule))
        bs.eval_all = self.wrap(bs.eval_all, "basis.eval", "basis.eval_calls",
                                points="basis.eval_points")
        gram = solver.assemble_gram(sc, bs, settings)
        system = solver.GramSystem(gram, bs.d_vector())
        with self.span("solver.bounds"):
            upper = solver.upper_bound(system)
            lower = solver.lower_bound(system)
        slack = 10.0 * settings.abs_tol * bs.n
        if lower > upper:  # gamma_bounds' rule: clamp a crossing within slack
            if lower - upper > max(1e-10, slack) * max(1.0, abs(upper)):
                raise SolveError(f"bounds crossed: lower {lower} > upper {upper}")
            lower = upper
        self.count("basis.n", bs.n)
        self.assembled.append((sc, bs, gram))
        return solver.BoundsResult(lower, upper, bs.n, math.nan, 0.0, slack)

    def assemble_by_kind(self) -> str | None:
        """Assemble each shape of the current job's scenes alone, timed per kind.

        Untimed by the job clock and uncounted.  Returns an error when the
        one-shape Grams do not sum to the full Gram within GRAM_SUM_RTOL.
        """
        error = None
        self.muted = True
        try:
            for sc, bs, gram in self.assembled:
                total = np.zeros_like(gram.H)
                for shape, label in zip(sc.shapes, sc.labels):
                    with self.span("integrals.assemble." + KIND_NAMES[type(shape)]):
                        part = integrals.assemble_gram(geometry.Scene((shape,), (label,)), bs)
                    total += part.H
                scale = np.max(np.abs(gram.H))
                if np.max(np.abs(total - gram.H)) > GRAM_SUM_RTOL * scale:
                    error = "one-shape Grams do not sum to the full Gram"
        finally:
            self.muted = False
        return error

    def write(self, path) -> None:
        """Save the spans as gzipped CSV: name,start,end,parent,job."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start,end,parent,job\n")
            for name, start, end, parent, job in self.spans:
                fh.write(f"{name},{start!r},{end!r},"
                         f"{'' if parent is None else parent},{job}\n")


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block; yields the staged bounds."""
    patches = {
        (integrals, "integrate_arc"): tracer.wrap(
            integrals.integrate_arc, "quadrature.integrate", "quadrature.arc_calls"),
        (integrals, "circle_pair_integral"): tracer.wrap(
            integrals.circle_pair_integral, "integrals.circle_pair",
            "integrals.circle_pair_calls"),
        (solver, "assemble_gram"): tracer.wrap(
            solver.assemble_gram, "integrals.assemble", "integrals.assemble_calls"),
        (sublab, "gamma_bounds"): tracer.wrap(
            tracer.staged_bounds, "sublab.gamma", "sublab.gamma_calls"),
    }
    saved = {key: getattr(*key) for key in patches}
    try:
        for (module, name), fn in patches.items():
            setattr(module, name, fn)
        yield tracer.staged_bounds
    finally:
        for (module, name), fn in saved.items():
            setattr(module, name, fn)


def layer_metrics(tracer: Tracer, records) -> dict[str, float]:
    """Per-job means: calibrated seconds per span name, and call counts."""
    factor = {rec.index: rec.factor for rec in records}
    times = Counter()
    for name, start, end, _, job in tracer.spans:
        if name in TIME_METRICS and job in factor:
            times[TIME_METRICS[name]] += (end - start) * factor[job]
    counts = Counter()
    for (job, name), n in tracer.counts.items():
        if job in factor:
            counts[name] += n
    jobs = len(records)
    out = {metric: times[metric] / jobs for metric in TIME_METRICS.values()}
    out.update({name: counts[name] / jobs for name in COUNT_METRICS})
    return out
