"""Command-line front end.

Subcommands::

    anacap gamma    --config scene.json [--quad-tol T]
    anacap exact    two-disks --c C --r R | square --s S
    anacap discrete --config disks.json [--m M]
    anacap sweep    --config disks.json --m M --r-min A --r-max B --steps N
                    [--out file.csv] [--seed S] [--quad-tol T]

Only ``gamma`` and ``sweep`` integrate over boundaries, so only they take the
quadrature tolerance.

Exit codes: 0 success, 2 configuration/domain error (an invalid scene, such
as overlapping or degenerate shapes, and a --quad-tol that is not finite and
positive included), 3 numerical failure, 4 certified monotonicity violation
in a sweep.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import exact
from . import sublab as _sweepmod
from .basis import schedule_from_config
from .discrete import DiskConfiguration, discrete_report
from .errors import (AnacapError, DegenerateShapeError, DomainError, OverlapError,
                     SceneConfigError, SplitError)
from .geometry import Disk, load_scene, validate_scene
from .quadrature import QuadratureSettings
from .solver import gamma_bounds

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VIOLATION = 4

_CONFIG_ERRORS = (SceneConfigError, DomainError, SplitError, OverlapError,
                  DegenerateShapeError)


def _fmt(x) -> str:
    if isinstance(x, float):
        return _sweepmod.format_float(x)
    return json.dumps(x)


def _json_line(obj: dict) -> str:
    # fixed key order, 17 significant digits for floats
    parts = [f'"{k}": {_fmt(v)}' for k, v in obj.items()]
    return "{" + ", ".join(parts) + "}"


def _settings(args) -> QuadratureSettings:
    return QuadratureSettings(abs_tol=args.quad_tol)


def _load_disks(path, m_flag):
    sc, raw = load_scene(path)
    sc = validate_scene(sc)
    if not all(isinstance(s, Disk) for s in sc.shapes):
        raise SceneConfigError("this subcommand needs an all-disk scene")
    radii = {s.radius for s in sc.shapes}
    if len(radii) != 1:
        raise SceneConfigError("all disks must share one radius")
    # order E-labelled disks first so the split index is meaningful
    order = [i for i, lab in enumerate(sc.labels) if lab == "E"]
    order += [i for i, lab in enumerate(sc.labels) if lab == "F"]
    centers = tuple(sc.shapes[i].center for i in order)
    if m_flag is not None:
        m = m_flag
    else:
        n_e = sum(1 for lab in sc.labels if lab == "E")
        m = n_e if 1 <= n_e <= len(centers) - 1 else None
    return centers, radii.pop(), m, raw


def cmd_gamma(args) -> int:
    sc, raw = load_scene(args.config)
    if "schedule" not in raw:
        raise SceneConfigError("gamma needs a 'schedule' entry in the config")
    schedule = schedule_from_config(raw["schedule"])
    res = gamma_bounds(sc, schedule, _settings(args))
    print(_json_line(res.to_json_dict()))
    return EXIT_OK


def cmd_exact(args) -> int:
    if args.form == "two-disks":
        val = exact.two_disk_capacity(args.c, args.r)
        formula = "sqrt(c^2 - r^2) * theta2(q)^2"
    else:
        val = exact.square_capacity(args.s)
        formula = "s * sqrt(2) * Gamma(1/4)^2 / (4 pi^(3/2))"
    print(_json_line({"value": val, "formula": formula}))
    return EXIT_OK


def cmd_discrete(args) -> int:
    centers, radius, m, _ = _load_disks(args.config, args.m)
    report = discrete_report(DiskConfiguration(centers, radius, m))
    print(_json_line(report.to_json_dict()))
    return EXIT_OK


def cmd_sweep(args) -> int:
    schedule = _sweepmod.default_schedule()
    if args.config:
        centers, _, m, raw = _load_disks(args.config, args.m)
        if "schedule" in raw:
            schedule = schedule_from_config(raw["schedule"])
    else:
        centers = _sweepmod.random_configuration(18, args.seed)
        m = args.m if args.m is not None else len(centers) // 2
        print(f'{{"seed": {args.seed}, "n_disks": {len(centers)}}}', file=sys.stderr)
    if m is None:
        raise SceneConfigError("sweep needs a split (--m or E/F labels)")
    cap = _sweepmod.max_sweep_radius(centers)
    if args.r_max > cap:
        raise SceneConfigError(
            f"--r-max {args.r_max} exceeds the disjointness cap {cap:.6g}")
    if not (0 < args.r_min <= args.r_max) or args.steps < 1:
        raise SceneConfigError("need 0 < --r-min <= --r-max and --steps >= 1")
    if args.steps == 1:
        grid = [args.r_min]
    else:
        step = (args.r_max - args.r_min) / (args.steps - 1)
        grid = [args.r_min + i * step for i in range(args.steps)]
    records = _sweepmod.sweep(centers, m, grid, schedule, _settings(args))
    csv_text = _sweepmod.records_to_csv(records)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    verdict = _sweepmod.monotonicity_verdict(records)
    print(_json_line(verdict.to_json_dict()), file=sys.stderr)
    if verdict.n_increase > 0:
        offenders = [i for i, v in enumerate(verdict.pair_verdicts)
                     if v == _sweepmod.CERTIFIED_INCREASE]
        for i in offenders:
            a, b = records[i], records[i + 1]
            print(_json_line({"violation_between_r": a.r, "and_r": b.r,
                              "ratio_high_prev": a.ratio_high,
                              "ratio_low_next": b.ratio_low}), file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    quad = argparse.ArgumentParser(add_help=False)
    quad.add_argument("--quad-tol", type=float, default=QuadratureSettings.abs_tol)

    p = argparse.ArgumentParser(prog="anacap",
                                description="analytic capacity bounds and experiments")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gamma", parents=[quad],
                       help="certified capacity bracket for a scene")
    g.add_argument("--config", required=True)
    g.set_defaults(func=cmd_gamma)

    e = sub.add_parser("exact", help="closed-form reference values")
    esub = e.add_subparsers(dest="form", required=True)
    e2 = esub.add_parser("two-disks")
    e2.add_argument("--c", type=float, required=True)
    e2.add_argument("--r", type=float, required=True)
    e2.set_defaults(func=cmd_exact, form="two-disks")
    es = esub.add_parser("square")
    es.add_argument("--s", type=float, default=1.0)
    es.set_defaults(func=cmd_exact, form="square")

    d = sub.add_parser("discrete",
                       help="discrete-capacity report for a disk scene")
    d.add_argument("--config", required=True)
    d.add_argument("--m", type=int, default=None)
    d.set_defaults(func=cmd_discrete)

    s = sub.add_parser("sweep", parents=[quad],
                       help="radius sweep of the subadditivity ratio")
    s.add_argument("--config", default=None)
    s.add_argument("--m", type=int, default=None)
    s.add_argument("--r-min", type=float, required=True)
    s.add_argument("--r-max", type=float, required=True)
    s.add_argument("--steps", type=int, required=True)
    s.add_argument("--out", default=None)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_sweep)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AnacapError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
