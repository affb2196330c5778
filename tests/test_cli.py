import json
import re
from pathlib import Path

import pytest

from anacap.cli import (EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, EXIT_VIOLATION, build_parser,
                        main)
from anacap.geometry import scene, scene_from_config, scene_to_config
from anacap.quadrature import QuadratureSettings
from conftest import crescent, run_fresh

README = Path(__file__).resolve().parent.parent / "README.md"
DEMOS = README.parent / "demos"

TWO_DISKS = {
    "shapes": [
        {"type": "disk", "center": [2, 0], "radius": 1.0, "label": "E"},
        {"type": "disk", "center": [-2, 0], "radius": 1.0, "label": "F"},
    ],
    "schedule": {"mode": "rings", "layers": 4},
}

SQUARE_CORNERS = {
    "shapes": [{"type": "polygon",
                "vertices": [[1, 0], [0, 1], [-1, 0], [0, -1]], "label": "E"}],
    "schedule": {"mode": "powers", "n": 6, "corners": True},
}

OVERLAPPING_DISKS = {"shapes": [
    {"type": "disk", "center": [0, 0], "radius": 1.0, "label": "E"},
    {"type": "disk", "center": [1.5, 0], "radius": 1.0, "label": "F"},
], "schedule": {"mode": "rings", "layers": 0}}

# semi-axes 1 and 1e-3: a ring pole inside lies within 1e-3 of the boundary,
# and the 2^16-node cap does not resolve its integrand
THIN_ELLIPSE = {"shapes": [
    {"type": "ellipse", "center": [0, 0], "semi_major": 1.0, "semi_minor": 1e-3},
], "schedule": {"mode": "rings", "layers": 1}}


@pytest.fixture
def config_file(tmp_path):
    def write(obj, name="scene.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- gamma ------------------------------------------------------------------

def test_gamma_two_disks(config_file, capsys):
    code, out, _ = run(capsys, "gamma", "--config", config_file(TWO_DISKS))
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["lower"] <= 1.875595019097120 <= obj["upper"]
    assert obj["upper"] - obj["lower"] < 1e-9
    assert obj["n_basis"] == 34
    assert set(obj) == {"lower", "upper", "n_basis", "slack", "wall_time_s"}


def test_gamma_square_corner_schedule(config_file, capsys):
    code, out, _ = run(capsys, "gamma", "--config", config_file(SQUARE_CORNERS))
    assert code == EXIT_OK
    obj = json.loads(out)
    assert 0.834626584020641 - 1e-7 <= obj["lower"]
    assert obj["upper"] <= 0.834627152182154 + 1e-7


def test_gamma_malformed_config(config_file, capsys):
    code, _, err = run(capsys, "gamma", "--config",
                       config_file({"shapes": [{"type": "disk"}]}))
    assert code == EXIT_CONFIG
    assert "error" in err


def test_gamma_missing_schedule(config_file, capsys):
    code, _, err = run(capsys, "gamma", "--config",
                       config_file({"shapes": TWO_DISKS["shapes"]}))
    assert code == EXIT_CONFIG


def test_gamma_mistyped_schedule_is_config_error(config_file, capsys):
    # the string "false" is not a boolean: it must not switch corner functions on
    bad = dict(SQUARE_CORNERS, schedule={"mode": "powers", "n": 4, "corners": "false"})
    code, _, err = run(capsys, "gamma", "--config", config_file(bad))
    assert code == EXIT_CONFIG
    assert "corners" in err


def test_gamma_mistyped_shape_number_is_config_error(config_file, capsys):
    # the string "1.0" is not a JSON number: it is not read as a radius of 1
    bad = dict(TWO_DISKS, shapes=[dict(TWO_DISKS["shapes"][0], radius="1.0"),
                                  TWO_DISKS["shapes"][1]])
    code, _, err = run(capsys, "gamma", "--config", config_file(bad))
    assert code == EXIT_CONFIG
    assert "radius must be a number" in err
    # a radius of 5000 digits is valid JSON that Python's reader refuses to
    # convert (a ValueError, not a JSONDecodeError), and bytes that are not
    # UTF-8 are no JSON text at all
    path = Path(config_file(TWO_DISKS))
    text = path.read_text().replace('"radius": 1.0', '"radius": ' + "1" * 5000, 1)
    for data in (text.encode(), b'{"shapes": [\xff]}'):
        path.write_bytes(data)
        code, _, err = run(capsys, "gamma", "--config", str(path))
        assert code == EXIT_CONFIG
        assert "invalid JSON" in err


def test_gamma_overlap_is_config_error(config_file, capsys):
    code, _, err = run(capsys, "gamma", "--config", config_file(OVERLAPPING_DISKS))
    assert code == EXIT_CONFIG
    assert "intersecting closures" in err


# --- exact ------------------------------------------------------------------

def test_exact_two_disks(capsys):
    code, out, _ = run(capsys, "exact", "two-disks", "--c", "2", "--r", "1")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["value"] == pytest.approx(1.8755950190971197, abs=1e-13)
    assert "formula" in obj


def test_exact_square(capsys):
    code, out, _ = run(capsys, "exact", "square", "--s", "1")
    obj = json.loads(out)
    assert code == EXIT_OK
    assert obj["value"] == pytest.approx(0.8346268416740732, abs=1e-14)


def test_exact_domain_error(capsys):
    code, _, err = run(capsys, "exact", "two-disks", "--c", "1", "--r", "2")
    assert code == EXIT_CONFIG
    assert "error" in err


@pytest.mark.parametrize("argv,value", [
    (("square", "--s", "1e308"), 8.346268416740732e307),
    (("two-disks", "--c", "2e300", "--r", "1e300"), 1.8755950190971197e300),
    (("two-disks", "--c", "1e300", "--r", "1"), 2.0),
    # 1e-9 from touching, every digit kept (mpmath, 50 digits)
    (("two-disks", "--c", "1", "--r", "0.999999999"), 1.5707963257476990976),
])
def test_exact_at_extreme_scales_prints_a_finite_value(capsys, argv, value):
    code, out, _ = run(capsys, "exact", *argv)
    assert code == EXIT_OK
    assert json.loads(out)["value"] == pytest.approx(value, rel=1e-14, abs=0)


@pytest.mark.parametrize("argv", [
    ("square", "--s", "inf"), ("square", "--s", "nan"),
    ("two-disks", "--c", "inf", "--r", "1"), ("two-disks", "--c", "nan", "--r", "1"),
])
def test_exact_rejects_a_value_that_is_not_finite(capsys, argv):
    code, out, err = run(capsys, "exact", *argv)
    assert code == EXIT_CONFIG and not out and "error" in err


# --- discrete ---------------------------------------------------------------

def test_discrete_report(config_file, capsys):
    code, out, _ = run(capsys, "discrete", "--config", config_file(TWO_DISKS),
                       "--m", "1")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["delta"] == pytest.approx(0.125)
    assert obj["alpha"] == pytest.approx(0.125)
    assert obj["poly_lower"] <= obj["lambda"] <= obj["poly_upper"]


def test_discrete_split_from_labels(config_file, capsys):
    code, out, _ = run(capsys, "discrete", "--config", config_file(TWO_DISKS))
    assert code == EXIT_OK
    assert "delta" in json.loads(out)


def test_discrete_rejects_mixed_radii(config_file, capsys):
    bad = {"shapes": [
        {"type": "disk", "center": [0, 0], "radius": 1.0, "label": "E"},
        {"type": "disk", "center": [5, 0], "radius": 2.0, "label": "F"},
    ]}
    code, _, _ = run(capsys, "discrete", "--config", config_file(bad))
    assert code == EXIT_CONFIG


def test_discrete_rejects_a_scene_that_is_not_all_disks(config_file, capsys):
    ellipse = {"type": "ellipse", "center": [-3, 0], "semi_major": 0.5, "semi_minor": 0.25}
    mixed = {"shapes": [TWO_DISKS["shapes"][0], ellipse]}
    code, out, err = run(capsys, "discrete", "--config", config_file(mixed))
    assert code == EXIT_CONFIG
    assert out == ""
    assert "needs an all-disk scene" in err


def test_discrete_overlap_is_config_error(config_file, capsys):
    code, _, err = run(capsys, "discrete", "--config", config_file(OVERLAPPING_DISKS))
    assert code == EXIT_CONFIG
    assert "intersecting closures" in err


def test_discrete_split_out_of_range_is_config_error(config_file, capsys):
    code, _, err = run(capsys, "discrete", "--config", config_file(TWO_DISKS), "--m", "0")
    assert code == EXIT_CONFIG
    assert "split m=0" in err


def test_discrete_has_no_quadrature_flags(config_file, capsys):
    # the discrete report integrates nothing, so it takes no quadrature flags
    with pytest.raises(SystemExit) as exc:
        main(["discrete", "--config", config_file(TWO_DISKS), "--quad-tol", "1e-8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --quad-tol" in capsys.readouterr().err


# --- sweep ------------------------------------------------------------------

def test_sweep_csv_and_verdict(config_file, capsys):
    code, out, err = run(capsys, "sweep", "--config", config_file(TWO_DISKS),
                         "--m", "1", "--r-min", "0.2", "--r-max", "1.8",
                         "--steps", "5")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0].startswith("r,ratio_low,ratio_high")
    assert len(lines) == 6
    verdict = json.loads(err.strip().split("\n")[-1])
    assert verdict["certified_decrease"] == 4
    assert verdict["certified_increase"] == 0
    assert verdict["subadditive_certified"] == 5


def test_sweep_to_file(config_file, tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "sweep", "--config", config_file(TWO_DISKS),
                       "--m", "1", "--r-min", "0.5", "--r-max", "1.0",
                       "--steps", "2", "--out", str(out_path))
    assert code == EXIT_OK
    assert out == ""
    assert out_path.read_text().startswith("r,ratio_low")


def test_sweep_to_a_missing_directory_is_config_error_before_the_sweep(
        config_file, tmp_path, capsys, monkeypatch):
    # the file was opened after every record had been computed, and its
    # FileNotFoundError ended in a traceback with exit 1
    def refuse(*args):
        raise AssertionError("sweep run before its output was opened")

    monkeypatch.setattr("anacap.sublab.sweep", refuse)
    out_path = tmp_path / "missing" / "sweep.csv"
    code, out, err = run(capsys, "sweep", "--config", config_file(TWO_DISKS),
                         "--m", "1", "--r-min", "0.5", "--r-max", "1.0",
                         "--steps", "2", "--out", str(out_path))
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith(f"error: cannot write {out_path}")


def test_sweep_of_one_step_takes_r_min(config_file, capsys):
    code, out, err = run(capsys, "sweep", "--config", config_file(TWO_DISKS),
                         "--m", "1", "--r-min", "0.5", "--r-max", "1.0", "--steps", "1")
    assert code == EXIT_OK
    _, row = out.strip().split("\n")
    assert float(row.split(",")[0]) == 0.5
    assert json.loads(err.strip().split("\n")[-1])["records"] == 1


def test_sweep_has_no_threads_flag(config_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", config_file(TWO_DISKS), "--m", "1", "--r-min", "0.5",
              "--r-max", "1.0", "--steps", "2", "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


def test_sweep_overlapping_rmax_rejected(config_file, capsys):
    code, _, err = run(capsys, "sweep", "--config", config_file(TWO_DISKS),
                       "--m", "1", "--r-min", "0.5", "--r-max", "2.5",
                       "--steps", "3")
    assert code == EXIT_CONFIG


def test_sweep_without_a_split_is_config_error(config_file, capsys):
    # every disk labelled E and no --m: there is no F set to split off
    all_e = {"shapes": [dict(sh, label="E") for sh in TWO_DISKS["shapes"]]}
    code, out, err = run(capsys, "sweep", "--config", config_file(all_e),
                         "--r-min", "0.5", "--r-max", "1.0", "--steps", "2")
    assert code == EXIT_CONFIG
    assert out == ""
    assert "sweep needs a split" in err


@pytest.mark.parametrize("grid", [("1.0", "0.5", "2"), ("0.5", "1.0", "0")],
                         ids=["r_min_above_r_max", "no_steps"])
def test_sweep_bad_radius_grid_is_config_error(config_file, capsys, grid):
    r_min, r_max, steps = grid
    code, out, err = run(capsys, "sweep", "--config", config_file(TWO_DISKS), "--m", "1",
                         "--r-min", r_min, "--r-max", r_max, "--steps", steps)
    assert code == EXIT_CONFIG
    assert out == ""
    assert "need 0 < --r-min <= --r-max and --steps >= 1" in err


def test_sweep_split_out_of_range_is_config_error(config_file, capsys):
    code, _, err = run(capsys, "sweep", "--config", config_file(TWO_DISKS),
                       "--m", "5", "--r-min", "0.5", "--r-max", "1.0", "--steps", "2")
    assert code == EXIT_CONFIG
    assert "split m=5" in err


def test_sweep_violation_exit_code(config_file, capsys, monkeypatch):
    # force a certified increase to check the exit-code contract
    import anacap.cli as cli
    from anacap.sublab import Verdict

    def fake_verdict(records):
        return Verdict(("CERTIFIED_INCREASE",), 0, 1, 0, (True, True))

    monkeypatch.setattr(cli._sweepmod, "monotonicity_verdict", fake_verdict)
    code, _, err = run(capsys, "sweep", "--config", config_file(TWO_DISKS),
                       "--m", "1", "--r-min", "0.5", "--r-max", "1.0",
                       "--steps", "2")
    assert code == EXIT_VIOLATION
    assert "violation_between_r" in err


def test_sweep_seeded_random_scene(capsys):
    code1, out1, err1 = run(capsys, "sweep", "--r-min", "0.05", "--r-max", "0.1",
                            "--steps", "2", "--seed", "3")
    code2, out2, _ = run(capsys, "sweep", "--r-min", "0.05", "--r-max", "0.1",
                         "--steps", "2", "--seed", "3")
    assert code1 == code2 == EXIT_OK
    assert '"seed": 3' in err1
    # identical seeds give identical value columns (timing column varies)
    for l1, l2 in zip(out1.split("\n"), out2.split("\n")):
        assert l1.rsplit(",", 1)[0] == l2.rsplit(",", 1)[0]


def test_sweep_negative_seed_is_config_error(capsys):
    # NumPy's generator raised "expected non-negative integer", exit 1
    code, out, err = run(capsys, "sweep", "--r-min", "0.01", "--r-max", "0.02",
                         "--steps", "2", "--seed", "-1")
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == "error: --seed must be >= 0, got -1\n"


def test_output_floats_have_17_significant_digits(config_file, capsys):
    _, out, _ = run(capsys, "exact", "two-disks", "--c", "2", "--r", "1")
    value = out.split('"value": ')[1].split(",")[0]
    assert float(value) == float(format(float(value), ".17g"))
    assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 16


def test_determinism_identical_runs(config_file, capsys):
    args = ("sweep", "--config", config_file(TWO_DISKS), "--m", "1",
            "--r-min", "0.3", "--r-max", "0.9", "--steps", "3")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    strip = lambda text: [line.rsplit(",", 1)[0] for line in text.split("\n")]
    assert strip(out1) == strip(out2)


@pytest.mark.parametrize("argv", [
    ("gamma", "--config", "scene.json"),
    ("sweep", "--r-min", "0.1", "--r-max", "0.2", "--steps", "2"),
], ids=["gamma", "sweep"])
def test_quad_tol_default_is_the_quadrature_default(argv):
    assert build_parser().parse_args(argv).quad_tol == QuadratureSettings().abs_tol


def test_quad_flags_after_subcommand(config_file, capsys):
    code, out, _ = run(capsys, "gamma", "--config", config_file(TWO_DISKS),
                       "--quad-tol", "1e-8")
    assert code == EXIT_OK
    assert json.loads(out)["slack"] == pytest.approx(10 * 1e-8 * 34)
    # the node cap is the only stop rule, so there is no depth flag
    with pytest.raises(SystemExit) as exc:
        main(["gamma", "--config", config_file(TWO_DISKS), "--quad-max-depth", "40"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --quad-max-depth" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_bad_quad_tol_is_config_error(config_file, capsys, tol):
    path = config_file(TWO_DISKS)
    sweep = ("sweep", "--config", path, "--m", "1", "--r-min", "0.5", "--r-max", "1.0",
             "--steps", "2")
    for argv in (("gamma", "--config", path), sweep):
        code, out, err = run(capsys, *argv, "--quad-tol", tol)
        assert code == EXIT_CONFIG
        assert out == ""
        assert "quadrature tolerance must be finite and positive" in err


def test_max_depth_failure_is_numerical_exit(config_file, capsys):
    code, _, err = run(capsys, "gamma", "--config", config_file(THIN_ELLIPSE))
    assert code == EXIT_NUMERICAL
    assert "numerical failure" in err
    assert "65536 nodes" in err


@pytest.mark.parametrize("shift, exit_code", [(-0.05, EXIT_OK), (-0.01, EXIT_NUMERICAL)])
def test_thin_crescent_is_no_invalid_scene(config_file, capsys, shift, exit_code):
    # a valid scene whose anchor needs the deeper probes: a bracket at 0.040
    # thick, a quadrature failure at 0.008, never exit 2
    config = {**scene_to_config(scene([crescent(shift)])), "schedule": {"mode": "powers", "n": 4}}
    code, _, _ = run(capsys, "gamma", "--config", config_file(config))
    assert code == exit_code


def test_non_finite_vertex_is_config_error(config_file, capsys):
    # NaN is valid JSON to Python's reader; the shape check rejects it like a zero radius
    bad = dict(SQUARE_CORNERS, shapes=[dict(SQUARE_CORNERS["shapes"][0],
                                            vertices=[[1, 0], [0, 1], [float("nan"), 1], [0, -1]])])
    code, _, err = run(capsys, "gamma", "--config", config_file(bad))
    assert code == EXIT_CONFIG
    assert "finite" in err


# --- README examples --------------------------------------------------------

def readme_block(heading, lang):
    """The first ``lang`` code block of the README after ``heading``."""
    section = README.read_text().split(heading, 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs_with_warnings_as_errors():
    # a public name that the README uses and the package no longer has fails here
    run_fresh("-c", "import warnings\nwarnings.simplefilter('error')\n"
              + readme_block("## Library quick start", "python"))


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs_with_warnings_as_errors(demo, tmp_path):
    # from tmp_path, where subadditivity_sweep.py writes its CSV
    run_fresh("-W", "error", str(demo), cwd=tmp_path)


def test_readme_schema_example(config_file, capsys):
    # a valid scene of all four shape kinds and both piece kinds, which gets a
    # bracket, and which the writer and the reader of the field table give back
    config = json.loads(readme_block("### Scene configuration schema", "json"))
    code, out, _ = run(capsys, "gamma", "--config", config_file(config))
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["lower"] <= obj["upper"]
    sc = scene_from_config(config)
    kinds = {type(s).__name__ for s in sc.shapes}
    kinds |= {type(pc).__name__ for s in sc.shapes for pc in getattr(s, "pieces", ())}
    assert kinds == {"Disk", "Ellipse", "Polygon", "ArcChain", "Segment", "CircularArc"}
    assert scene_from_config(scene_to_config(sc)) == sc
