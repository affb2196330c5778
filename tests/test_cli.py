import json

import pytest

from anacap.cli import EXIT_CONFIG, EXIT_OK, EXIT_VIOLATION, main

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


def test_gamma_overlap_is_config_error(config_file, capsys):
    bad = {"shapes": [
        {"type": "disk", "center": [0, 0], "radius": 1.0, "label": "E"},
        {"type": "disk", "center": [1.5, 0], "radius": 1.0, "label": "F"},
    ], "schedule": {"mode": "rings", "layers": 0}}
    code, _, err = run(capsys, "gamma", "--config", config_file(bad))
    assert code != EXIT_OK


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


def test_sweep_overlapping_rmax_rejected(config_file, capsys):
    code, _, err = run(capsys, "sweep", "--config", config_file(TWO_DISKS),
                       "--m", "1", "--r-min", "0.5", "--r-max", "2.5",
                       "--steps", "3")
    assert code == EXIT_CONFIG


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


def test_quad_flags_after_subcommand(config_file, capsys):
    code, out, _ = run(capsys, "gamma", "--config", config_file(TWO_DISKS),
                       "--quad-tol", "1e-8", "--quad-max-depth", "40")
    assert code == EXIT_OK
    assert json.loads(out)["slack"] == pytest.approx(10 * 1e-8 * 34)


def test_max_depth_failure_is_numerical_exit(config_file, capsys):
    from anacap.cli import EXIT_NUMERICAL

    # two panel doublings do not resolve the corner-adapted square; three do
    code, _, err = run(capsys, "gamma", "--config", config_file(SQUARE_CORNERS),
                       "--quad-max-depth", "2")
    assert code == EXIT_NUMERICAL
    assert "numerical failure" in err
