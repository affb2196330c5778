"""anacap benchmark: seeded workloads, calibrated job times, per-layer trace.

    python3 bench/run.py --workload corners --seed 1 --seconds 12 --trace 0

Runs from the root of a checkout and imports ``anacap`` from its ``src/``.
``--trace 0`` measures the end-to-end metrics with tracing off, in WORKERS
fresh interpreters run one after another; ``--trace 1`` runs its jobs
untraced, then traced, then traced again in a subprocess whose BLAS is
limited to one thread, and reports the per-layer metrics.  Every bracket is checked against a reference.  The metric names
and units come from ``BENCHMARK.json``; ``bench/METRICS.md`` explains them.
The last line of standard output is one JSON object; the run also writes a
result file (and, when traced, its spans) under ``bench/results/``.  The
exit code is 0 only when every job passed its checks.

Imports here are the standard library only: the set-up probe times the
import of NumPy, SciPy and anacap itself.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
# Fresh interpreters per untraced run, one after another; each times the
# set-up, then runs every WORKERS-th job.  One process's speed on the
# ellipses jobs differed from another's by up to 25% at the same probe speed
# (memory layout), so a run spreads its jobs over several.
WORKERS = 5
# the traced run's three phases each get about this share of --seconds
TRACE_PHASE_SHARE = 0.25
# hard cap on a run, well inside the 180 s a run may take
MAX_RUN_S = 150.0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the untraced workers and the one-thread BLAS repeat are children
    p.add_argument("--child", choices=("worker", "blas1"), help=argparse.SUPPRESS)
    p.add_argument("--part", type=int, default=0, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _use_checkout_sources() -> None:
    src = ROOT / "src"
    if not (src / "anacap" / "__init__.py").is_file():
        sys.exit(f"bench: no anacap sources at {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))


def _worker(args) -> None:
    """Child: time the set-up, then run jobs ``part``, ``part + WORKERS``, ...

    The set-up is ``import anacap``, then validate and basis-build the first
    job's scenes.  NumPy's import is part of it, so a pure-Python probe
    calibrates it.  Prints one JSON line.
    """
    import timing

    with timing.Sampler(timing.python_probe) as sampler:
        t0 = time.perf_counter()
        import anacap

        import workloads

        count = workloads.n_jobs(args.workload, args.seconds)
        for scene, schedule in workloads.make_job(args.workload, args.seed, 0, count).scenes():
            anacap.BasisSet(anacap.build_basis(anacap.validate_scene(scene), schedule))
        setup = time.perf_counter() - t0 - sampler.spent
    c = timing.adjacent_speed([*sampler.samples, timing.calibration_sample(timing.python_probe)])
    part = range(args.part, count, WORKERS)
    jobs = [workloads.make_job(args.workload, args.seed, k, count) for k in part]
    records = timing.run_jobs(jobs, anacap.gamma_bounds,
                              time.perf_counter() + MAX_RUN_S / WORKERS)
    print(json.dumps({
        "setup_raw_s": setup,
        "setup_s": setup * timing.C_NOMINAL_PYTHON / c,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": [{"index": part[r.index], "raw_s": r.raw_s, "c_adjacent": r.c_adjacent,
                  "gap": r.gap, "error": r.error} for r in records],
    }))


def _child_output(cmd, env=None) -> str:
    out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=MAX_RUN_S, check=False)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} failed:\n{out.stderr}")
    return out.stdout.strip().splitlines()[-1]


def _child_cmd(args, child: str, part: int = 0) -> list[str]:
    return [sys.executable, str(Path(__file__)), "--child", child, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(args.seconds), "--part", str(part)]


def _traced_phase(jobs, deadline, per_kind: bool):
    import timing
    import tracing

    tracer = tracing.Tracer()
    kind_errors = {}

    def after_job(k):
        if per_kind:
            kind_errors[k] = tracer.assemble_by_kind()
        tracer.assembled.clear()

    with tracing.instrument(tracer) as staged:
        records = timing.run_jobs(jobs, staged, deadline, tracer=tracer, after_job=after_job)
    for rec in records:
        rec.error = rec.error or kind_errors.get(rec.index)
    return tracer, records


def _blas1_child(args) -> None:
    """Child run with one BLAS thread: the traced jobs again, solver time only."""
    import tracing
    import workloads

    jobs = workloads.make_jobs(args.workload, args.seed, _trace_jobs(args))
    tracer, records = _traced_phase(jobs, time.perf_counter() + args.seconds, per_kind=False)
    metrics = tracing.layer_metrics(tracer, records)
    print(json.dumps({"solver.bounds_s": metrics["solver.bounds_s"], "attempted": len(records),
                      "failed": sum(rec.error is not None for rec in records)}))


def _trace_jobs(args) -> int:
    import workloads

    return workloads.n_jobs(args.workload, args.seconds * TRACE_PHASE_SHARE)


def _gap_max(records) -> float:
    return max((rec.gap for rec in records if rec.error is None), default=float("nan"))


def untraced_run(args):
    import timing

    outs = [json.loads(_child_output(_child_cmd(args, "worker", part)))
            for part in range(WORKERS)]
    records = sorted((timing.JobRecord(j["index"], j["raw_s"], j["c_adjacent"], (), j["gap"],
                                       j["error"]) for out in outs for j in out["jobs"]),
                     key=lambda rec: rec.index)
    cal = [rec.cal_s for rec in records]
    q1, p50, q3 = timing.quartiles(cal)
    failed = sum(rec.error is not None for rec in records)
    metrics = {
        "jobs_per_s": len(records) / sum(cal),
        "job_s.p50": p50,
        "setup_s": statistics.median(out["setup_s"] for out in outs),
        # median, not max: one worker's heap can end a few MiB above the others'
        "peak_rss_mb": statistics.median(out["peak_rss_mb"] for out in outs),
    }
    notes = {
        "job_s.p50": f"q1 {q1:.4g}, q3 {q3:.4g}, n {len(cal)}; raw median "
                     f"{statistics.median(rec.raw_s for rec in records):.4g} s",
        "setup_s": f"calibrated, median of {WORKERS} fresh interpreters; raw "
                   f"{statistics.median(out['setup_raw_s'] for out in outs):.4g} s",
    }
    extra = {
        "gap.max": (_gap_max(records), "1",
                    "widest relative bracket width (ratio width on disk_sweep)"),
        "fail_frac": (failed / len(records), "1", "jobs failed / attempted"),
    }
    return records, metrics, notes, extra, {"attempted": 0, "failed": 0}


def traced_run(args):
    import anacap
    import timing
    import tracing
    import workloads

    deadline = time.perf_counter() + min(4.0 * args.seconds, MAX_RUN_S)
    jobs = workloads.make_jobs(args.workload, args.seed, _trace_jobs(args))
    # an untimed first pass, so that first-call costs (heap growth, lazy
    # loading) do not land on the untraced phase and hide the tracing overhead;
    # a failure here shows again in the measured passes
    with contextlib.suppress(Exception):
        jobs[0].run(anacap.gamma_bounds)
    plain = timing.run_jobs(jobs, anacap.gamma_bounds, deadline)
    tracer, traced = _traced_phase(jobs, deadline, per_kind=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    blas1 = json.loads(_child_output(_child_cmd(args, "blas1"), env=env))

    common = min(len(plain), len(traced))
    for a, b in zip(plain, traced):
        if b.error is None and a.brackets != b.brackets:
            b.error = f"staged bracket {b.brackets} differs from gamma_bounds' {a.brackets}"
    metrics = tracing.layer_metrics(tracer, traced)
    metrics["solver.bounds_s.blas1"] = blas1["solver.bounds_s"]
    metrics["solver.gap_max"] = _gap_max(traced)
    metrics["trace.overhead_pct"] = 100.0 * (
        sum(rec.cal_s for rec in traced[:common]) / sum(rec.cal_s for rec in plain[:common]) - 1.0)
    notes = {
        "solver.bounds_s": "upper_bound and lower_bound factor the Gram once each",
        "trace.overhead_pct": f"traced vs untraced time of the same {common} jobs",
    }
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"{args.workload}-seed{args.seed}-spans.csv.gz")
    records = plain + traced
    return records, metrics, notes, {}, blas1


def main(argv=None) -> int:
    args = _parse(argv)
    _use_checkout_sources()
    if args.child == "worker":
        _worker(args)
        return 0
    if args.child == "blas1":
        _blas1_child(args)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    run = traced_run if args.trace else untraced_run
    records, metrics, notes, extra, child = run(args)

    import timing

    failed = sum(rec.error is not None for rec in records) + child["failed"]
    attempted = len(records) + child["attempted"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        sys.exit(f"bench: metrics {missing} not measured")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} jobs, closed loop, one client")
    for m in wanted:
        note = notes.get(m["name"])
        print(f"  {m['name']:<30} {metrics[m['name']]:>14.6g} {m['unit']:<12}"
              + (f" ({note})" if note else ""))
    for name, (value, unit, note) in extra.items():
        print(f"  {name:<30} {value:>14.6g} {unit:<12} ({note})")
    for rec in records:
        if rec.error:
            print(f"  FAILED job {rec.index}: {rec.error}")

    facts = timing.machine_facts([rec.c_adjacent for rec in records])
    print("  machine: " + json.dumps({k: v for k, v in facts.items() if k != "calibration_s"}))
    print("  calibration: " + json.dumps(facts["calibration_s"]))
    RESULTS.mkdir(exist_ok=True)
    result_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts,
        "metrics": {**metrics, **{k: v[0] for k, v in extra.items()}},
        "jobs": [{"index": r.index, "raw_s": r.raw_s, "cal_s": r.cal_s,
                  "c_adjacent": r.c_adjacent, "gap": r.gap, "error": r.error}
                 for r in records],
    }, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
