"""Command-line front end: config handling, output formats, exit codes."""

import json
import math
import warnings

import pytest

from twrelay import load_states, sample_states, save_states
from twrelay.cli import (
    ConfigError,
    ExperimentConfig,
    SWEEP_HEADER,
    main,
    run_sweep,
    run_validate,
    sweep_csv,
)


# ------------------------------------------------------------------ config

def test_config_round_trips_through_dict():
    cfg = ExperimentConfig(lambdas=(0.5, 1.0), n_states=20, seed=3, epsilon=1e-5)
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknow"):
        ExperimentConfig.from_dict({"lambdas": [1.0], "n_sates": 5})


@pytest.mark.parametrize("field,value", [
    ("lambdas", ()),
    ("lambdas", (-0.5,)),
    ("n_states", 0),
    ("epsilon", 0.0),
    ("max_iter", 0),
])
def test_config_rejects_bad_values(field, value):
    kwargs = {"lambdas": (1.0,), field: value}
    with pytest.raises(ConfigError, match=field):
        ExperimentConfig(**kwargs)


def test_dump_config_applies_flag_overrides(capsys, tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"lambdas": [0.5], "seed": 9, "n_states": 10}))
    rc = main(["sweep", "--config", str(path), "--seed", "11", "--dump-config"])
    assert rc == 0
    merged = json.loads(capsys.readouterr().out)
    assert merged["seed"] == 11
    assert merged["n_states"] == 10
    assert merged["lambdas"] == [0.5]


def test_unreadable_config_exits_2(capsys):
    rc = main(["sweep", "--config", "/nonexistent/exp.json"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_config_json_exits_2_with_position(capsys, tmp_path):
    path = tmp_path / "exp.json"
    path.write_text('{"lambdas": [0.5,]}')
    rc = main(["sweep", "--config", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(path) in err and "1:" in err  # line:column diagnostic


# ------------------------------------------------------------------- sweep

def test_zero_rate_sweep_row(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--lambda", "0", "--n-states", "4", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert lines[1] == "0,0,0,0,0.5,1,0"


def test_infeasible_target_exits_2_with_one_line(capsys):
    # a mean rate of 2000 bits needs 2^2000, beyond float64 for any gains
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["sweep", "--lambda", "2000", "--n-states", "50"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("twrelay: error: no feasible time split")
    assert err.count("\n") == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_target_with_a_huge_finite_multiplier_is_solved(capsys):
    # the PNC-only and SPC-DNC-only multipliers sit near 1e121 and 1e181
    rc = main(["sweep", "--lambda", "200", "--n-states", "50"])
    assert rc == 0
    header, line = capsys.readouterr().out.strip().split("\n")
    assert header == SWEEP_HEADER
    vals = [float(v) for v in line.split(",")]
    assert vals[0] == 200.0
    assert all(math.isfinite(v) for v in vals)


def test_sweep_reruns_are_byte_identical(tmp_path):
    args = ["sweep", "--lambda", "0.5,1.0", "--n-states", "25", "--seed", "3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_rows_are_sorted_and_dominant(tmp_path):
    cfg = ExperimentConfig(lambdas=(1.0, 0.5), n_states=25, seed=3)
    rows = run_sweep(cfg)
    assert [r.target_rate for r in rows] == [0.5, 1.0]
    for r in rows:
        assert r.energy_switch <= min(r.energy_pnc_only, r.energy_dnc_only) + 1e-9
        assert 0.0 <= r.pnc_state_fraction <= 1.0


def test_sweep_csv_parses_back_at_printed_precision():
    cfg = ExperimentConfig(lambdas=(0.75,), n_states=10, seed=4)
    rows = run_sweep(cfg)
    text = sweep_csv(rows)
    header, line = text.strip().split("\n")
    assert header == SWEEP_HEADER
    vals = line.split(",")
    assert float(vals[0]) == 0.75
    for got, want in zip(vals[1:5], (rows[0].energy_switch, rows[0].energy_pnc_only,
                                     rows[0].energy_dnc_only, rows[0].f_u)):
        assert abs(float(got) - want) <= 1e-11 * max(1.0, abs(want))
    assert int(vals[5]) == rows[0].iterations


# ------------------------------------------------------------------- solve

def test_solve_emits_a_stable_json_schedule(tmp_path, capsys):
    states_path = tmp_path / "states.csv"
    save_states(sample_states(3, 12), states_path)
    rc = main(["solve", "--states", str(states_path), "--lambda", "1.0"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["target_rate"] == 1.0
    assert doc["converged"] is True
    assert len(doc["per_state"]) == 3
    assert set(doc["per_state"][0]) == {"mode", "rate_u", "rate_d", "power_u", "power_d"}
    assert doc["avg_energy"] > 0.0
    assert doc["f_u"] + doc["f_d"] == pytest.approx(1.0)
    # keys come out sorted so reruns diff cleanly
    assert list(doc) == sorted(doc)


def test_solve_needs_exactly_one_lambda(tmp_path, capsys):
    states_path = tmp_path / "states.csv"
    save_states(sample_states(2, 12), states_path)
    rc = main(["solve", "--states", str(states_path), "--lambda", "0.5,1.0"])
    assert rc == 2
    assert "exactly one" in capsys.readouterr().err


def test_solve_requires_a_states_file(capsys):
    rc = main(["solve", "--lambda", "1.0"])
    assert rc == 2
    assert "--states" in capsys.readouterr().err


def test_solve_rejects_malformed_states(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("g1r,g2r,gr1,gr2\n1.0,oops,1.0,1.0\n")
    rc = main(["solve", "--states", str(bad), "--lambda", "1.0"])
    assert rc == 2
    assert "row 2" in capsys.readouterr().err


# ------------------------------------------------------------------ sample

def test_sample_round_trips(tmp_path):
    out = tmp_path / "draw.csv"
    rc = main(["sample", "--n-states", "8", "--seed", "5", "--out", str(out)])
    assert rc == 0
    assert load_states(out) == sample_states(8, 5)


def test_sample_requires_an_output_path(capsys):
    rc = main(["sample", "--n-states", "8"])
    assert rc == 2
    assert "--out" in capsys.readouterr().err


# ---------------------------------------------------------------- validate

def test_empty_battery_passes_trivially():
    cfg = ExperimentConfig(lambdas=(0.5,))
    report = run_validate(cfg, battery=[])
    assert report.passed
    assert "no checks configured" in report.text()


def test_failing_check_is_named():
    cfg = ExperimentConfig(lambdas=(0.5,))
    battery = [
        ("always-green", lambda: (True, "fine")),
        ("bad-dnc-power", lambda: (False, "off by 2x")),
    ]
    report = run_validate(cfg, battery=battery)
    assert not report.passed
    text = report.text()
    assert "FAIL bad-dnc-power" in text
    assert "ok   always-green" in text


def test_crashing_check_counts_as_failure():
    def boom():
        raise RuntimeError("solver blew up")

    cfg = ExperimentConfig(lambdas=(0.5,))
    report = run_validate(cfg, battery=[("fragile", boom)])
    assert not report.passed
    assert "solver blew up" in report.text()


def test_validate_exit_code_follows_the_battery(monkeypatch, capsys):
    import twrelay.cli as cli_mod

    monkeypatch.setattr(cli_mod, "default_battery",
                        lambda config=None: [("stub", lambda: (False, "nope"))])
    rc = main(["validate"])
    assert rc == 1
    assert "FAIL stub" in capsys.readouterr().out
