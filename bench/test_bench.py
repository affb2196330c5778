"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import anacap  # noqa: E402
import run  # noqa: E402
import timing  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# (seed, job count): one-job runs sit at |a| = 1; the sweep gets three records
SMALL = {"corners": (7, 1), "ellipses": (7, 1), "disk_sweep": (7, 3)}


def _small_jobs(workload):
    seed, count = SMALL[workload]
    return workloads.make_jobs(workload, seed, count)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_identical_inputs(workload):
    a = workloads.make_jobs(workload, 5, 6)
    assert a == workloads.make_jobs(workload, 5, 6)
    assert a != workloads.make_jobs(workload, 6, 6)


def test_scale_grid_is_the_same_for_every_seed():
    def scales(seed):
        return sorted(job.problems[0].reference[0] / workloads.ELLIPSE_BAND[0]
                      for job in workloads.make_jobs("ellipses", seed, 8))

    assert scales(1) == pytest.approx(scales(2), rel=1e-12)
    lo, hi = workloads.SCALE_RANGE
    assert lo < scales(1)[0] and scales(1)[-1] < hi


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_and_gaps_repeat_exactly(workload):
    def traced():
        tracer, records = run._traced_phase(_small_jobs(workload), math.inf, per_kind=True)
        assert all(rec.error is None for rec in records), [rec.error for rec in records]
        metrics = tracing.layer_metrics(tracer, records)
        return ({name: metrics[name] for name in tracing.COUNT_METRICS},
                [rec.gap for rec in records])

    first, second = traced(), traced()
    assert first == second
    counts = first[0]
    assert counts["basis.n"] > 0 and counts["integrals.assemble_calls"] > 0
    assert counts["basis.eval_points"] == counts["basis.eval_calls"]
    if workload == "disk_sweep":
        assert counts["sublab.gamma_calls"] == 3 and counts["quadrature.arc_calls"] == 0
    else:
        assert counts["quadrature.arc_calls"] > 0 and counts["sublab.gamma_calls"] == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_staged_bracket_equals_gamma_bounds_bitwise(workload):
    (job,) = _small_jobs(workload)[:1]
    plain = job.check(job.run(anacap.gamma_bounds))
    tracer = tracing.Tracer()
    with tracing.instrument(tracer) as staged:
        staged_check = job.check(job.run(staged))
    assert plain[2] is None and staged_check[2] is None
    assert plain[0] == staged_check[0]


def test_instrument_restores_the_library():
    before = (anacap.integrals.integrate_arc, anacap.solver.assemble_gram,
              anacap.sublab.gamma_bounds)
    with pytest.raises(RuntimeError):
        with tracing.instrument(tracing.Tracer()):
            raise RuntimeError
    assert before == (anacap.integrals.integrate_arc, anacap.solver.assemble_gram,
                      anacap.sublab.gamma_bounds)


@pytest.mark.parametrize("workload", ["ellipses", "disk_sweep"])
def test_one_shape_grams_sum_to_the_full_gram(workload):
    tracer = tracing.Tracer()
    tracer.job = 0
    with tracing.instrument(tracer) as staged:
        _small_jobs(workload)[0].run(staged)
        assert tracer.assembled
        assert tracer.assemble_by_kind() is None


def test_checks_reject_a_bracket_that_misses_the_reference():
    job = workloads.make_job("ellipses", 3, 0, 1)
    lo, hi = job.problems[0].reference
    inside = anacap.BoundsResult(lo - 1e-6, hi + 1e-6, 68, 0.0, 0.0, 0.0)
    assert job.check([inside])[2] is None
    short = anacap.BoundsResult(lo - 1e-6, 0.5 * (lo + hi), 68, 0.0, 0.0, 0.0)
    assert "misses reference" in job.check([short])[2]


def test_quartiles_match_statistics_quantiles():
    assert timing.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert timing.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_fails_without_the_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(
        "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "corners",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


@pytest.mark.xfail(strict=True, reason="program defect: gamma_bounds raises SolveError "
                   "(lower > upper beyond its slack) on nine disks of radius 0.0299")
def test_disk_sweep_input_that_crosses_the_bounds():
    # job 16 of a 100-job disk_sweep run with seed 501; a run that draws it fails
    job = workloads.make_job("disk_sweep", 501, 16, 100)
    assert job.check(job.run(anacap.gamma_bounds))[2] is None
