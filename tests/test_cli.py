"""Command-line front end: config handling, output formats, exit codes."""

import dataclasses
import json
import math
import warnings

import pytest

from twrelay import ChannelState, Mode, load_states, sample_states, save_states
from twrelay.channel import DETERMINISTIC
from twrelay.cli import (
    _BLOCK,
    ConfigError,
    ExperimentConfig,
    SWEEP_HEADER,
    battery_instances,
    default_battery,
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


def test_config_round_trips_every_field_through_json():
    cfg = ExperimentConfig(lambdas=(0.5, 2.0), n_states=20, seed=3, fading_kind=DETERMINISTIC,
                           reciprocal=False, states_path="draw.csv", epsilon=1e-5,
                           max_iter=7, init_mode=Mode.PNC, rate_rtol=1e-7, f_tol=1e-4,
                           output="out.json")
    assert all(getattr(cfg, f.name) != f.default for f in dataclasses.fields(cfg))
    raw = cfg.to_dict()
    assert raw["fading"] == {"kind": DETERMINISTIC, "reciprocal": False}
    assert raw["tolerances"] == {"rate_rtol": 1e-7, "f_tol": 1e-4}
    assert raw["init_mode"] == "pnc"
    assert ExperimentConfig.from_dict(json.loads(json.dumps(raw))) == cfg


def test_config_built_directly_passes_the_file_checks():
    cfg = ExperimentConfig(init_mode="pnc")
    assert cfg.init_mode is Mode.PNC and cfg.to_dict()["init_mode"] == "pnc"


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknow"):
        ExperimentConfig.from_dict({"lambdas": [1.0], "n_sates": 5})


@pytest.mark.parametrize("field,value", [
    ("lambdas", ()),
    ("lambdas", (-0.5,)),
    ("n_states", 0),
    ("epsilon", 0.0),
    ("max_iter", 0),
    ("lambdas", 5),
    ("init_mode", "xnc"),
])
def test_config_rejects_bad_values(field, value):
    kwargs = {"lambdas": (1.0,), field: value}
    with pytest.raises(ConfigError, match=field):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize("field,raw", [
    ("n_states", {"n_states": 2.5}),
    ("n_states", {"n_states": True}),
    ("seed", {"seed": 1.5}),
    ("seed", {"seed": -1}),
    ("seed", {"seed": True}),
    ("max_iter", {"max_iter": 2.5}),
    ("max_iter", {"max_iter": True}),
    ("reciprocal", {"fading": {"reciprocal": "no"}}),
    ("lambdas", {"lambdas": [True]}),
    ("lambdas", {"lambdas": 5}),
    ("epsilon", {"epsilon": "x"}),
    ("epsilon", {"epsilon": True}),
    ("rate_rtol", {"tolerances": {"rate_rtol": "x"}}),
    ("rate_rtol", {"tolerances": {"rate_rtol": 1.0}}),
    ("f_tol", {"tolerances": {"f_tol": True}}),
    ("states_path", {"states_path": 5}),
    ("output", {"output": 5}),
    ("tolerances.rtol", {"tolerances": {"rtol": 1e-6}}),
    ("fading.kin", {"fading": {"kin": "rayleigh"}}),
    ("fading.kind", {"fading.kind": "rayleigh"}),
])
def test_config_input_types_are_checked(field, raw, capsys, tmp_path):
    # a wrong JSON type is one named error line and exit 2, never a
    # traceback or a silent cast
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"lambdas": [0.5], "n_states": 3, **raw}))
    rc = main(["sweep", "--config", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("twrelay: config error:") and err.count("\n") == 1
    assert field in err


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


# `twrelay sweep` with the default config, every printed digit; a refactor
# that moves any value in its twelfth digit changes this text
DEFAULT_SWEEP_CSV = """\
lambda,energy_switch,energy_pnc_only,energy_dnc_only,f_u,iterations,pnc_state_fraction
0.25,0.865057357351,0.924464341649,0.931231381852,0.581908942602,2,0.074
0.5,2.64995979258,2.77536105796,3.0972871435,0.54710365008,2,0.291
0.75,5.54524050975,5.69609850886,7.00581361152,0.529766073259,3,0.515
1,9.89422699058,10.070250239,13.6354557467,0.524056512655,3,0.663
1.25,16.2698369713,16.449407455,24.6229307863,0.521920893578,4,0.76
1.5,25.4935993962,25.68287203,42.6541326886,0.521015381023,3,0.828
1.75,38.7436900159,38.958767668,72.0910447701,0.519444973777,3,0.868
2,57.768375913,57.9983380782,119.94415316,0.518304180175,3,0.892
2.25,84.9598735138,85.2049371115,197.748067784,0.517052553191,3,0.924
2.5,123.654975996,123.967716746,324.588760412,0.515957199477,3,0.943
2.75,178.592023926,179.002631664,531.936000222,0.515104909136,3,0.953
3,256.327080559,256.863504159,871.966699925,0.514097315767,3,0.962
"""


def test_default_sweep_csv_is_pinned_literally(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--out", str(out)]) == 0
    assert out.read_text() == DEFAULT_SWEEP_CSV


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


def test_large_target_solve_prints_no_overflow_warning(tmp_path):
    # some probes of the SPC-DNC start have a finite power whose slope
    # overflows float64
    states_path, out = tmp_path / "one.csv", tmp_path / "one.json"
    save_states([ChannelState(1.0, 1.0, 1.0, 1.0)], states_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["solve", "--states", str(states_path), "--lambda", "300",
                   "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["avg_energy"] == 5.86999423204e+180
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


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


def test_sample_checks_its_output_path_before_drawing(monkeypatch, capsys):
    import twrelay.cli as cli_mod

    def no_draw(*args, **kwargs):
        raise AssertionError("states drawn before the output path was checked")

    monkeypatch.setattr(cli_mod, "sample_states", no_draw)
    assert main(["sample", "--n-states", "8"]) == 2
    assert "--out" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--states", "{tmp}/missing.csv", "--lambda", "1"],
    ["sweep", "--states", "{tmp}", "--lambda", "1"],
    ["sample", "--n-states", "3", "--out", "{tmp}/nodir/x.csv"],
], ids=["solve-missing-states", "sweep-states-directory", "sample-out-missing-dir"])
def test_file_errors_exit_2_with_one_line(argv, tmp_path, capsys):
    rc = main([a.format(tmp=tmp_path) for a in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("twrelay: error:") and err.count("\n") == 1
    assert str(tmp_path) in err


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


def test_default_battery_runs_its_small_checks():
    # 10 instances x 3 mode vectors, then 4 convexity probes; the n = 3-4
    # oracle checks are left to criterion 04
    instances = [(1101, 1, 0.25), (1102, 2, 0.5), (1103, 3, 1.0), (1104, 4, 0.25),
                 (1105, 1, 0.5), (1106, 2, 1.0), (1107, 3, 0.25), (1108, 4, 0.5),
                 (1109, 1, 1.0), (1110, 2, 0.25)]
    assert battery_instances() == instances
    agreement = [f"oracle-agreement[seed={seed},n={n},lam={lam:g},modes={label}]"
                 for seed, n, lam in instances for label in ("pnc", "dnc", "mixed")]
    convexity = ["convexity[pnc-uplink]", "convexity[dnc-uplink]", "convexity[downlink]",
                 "convexity[negative-control]"]
    battery = default_battery()
    assert len(battery) == 34
    assert [name for name, _ in battery] == agreement + convexity
    checks = dict(battery)
    small = [name for name in agreement if ",n=1," in name or ",n=2," in name]
    assert len(small) == 18
    for name in small + convexity:
        passed, detail = checks[name]()
        assert passed, (name, detail)


# ---------------------------------------------------- direct JSON writer

def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round12(v) for v in obj]
    return obj


def _assert_same_text(got: str, want: str) -> None:
    """got == want, reported by the first differing line, not a diff of the whole text."""
    if got == want:
        return
    a, b = got.split("\n"), want.split("\n")
    i = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    pytest.fail(f"texts differ first at line {i + 1} of {len(a)} and {len(b)}: "
                f"got {a[i] if i < len(a) else '<end>'!r}, "
                f"want {b[i] if i < len(b) else '<end>'!r}", pytrace=False)


def _reference_solve_json(cfg, states):
    """run_solve's document built item by item and printed by json.dumps."""
    from twrelay import solve_switching

    report = solve_switching(states, cfg.lambdas[0], epsilon=cfg.epsilon,
                             max_iter=cfg.max_iter, init_mode=cfg.init_mode,
                             opts=cfg.solver_options())
    a = report.final
    doc = {
        "f_u": a.split.f_u, "f_d": a.split.f_d,
        "duals": {"beta1": a.duals.beta1, "beta2": a.duals.beta2, "gamma": a.duals.gamma},
        "avg_energy": a.avg_energy, "avg_rate_u": a.avg_rate_u, "avg_rate_d": a.avg_rate_d,
        "per_state": [{"mode": sa.mode.value, "rate_u": sa.rate_u, "rate_d": sa.rate_d,
                       "power_u": sa.power_u, "power_d": sa.power_d} for sa in a.per_state],
        "target_rate": cfg.lambdas[0], "iterations": report.iterations,
        "converged": report.converged, "energy_trace": list(report.energy_trace),
    }
    return json.dumps(_round12(doc), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_solve_json_is_what_json_dumps_prints(seed):
    from twrelay.cli import run_solve

    cfg = ExperimentConfig(lambdas=(1.0,))
    states = sample_states(300, seed)
    _assert_same_text(run_solve(cfg, states), _reference_solve_json(cfg, states))


def test_solve_json_matches_json_dumps_at_extreme_powers_and_silent_states():
    from twrelay import Mode
    from twrelay.cli import run_solve

    # powers near 1e180 print in exponent form
    cfg = ExperimentConfig(lambdas=(300.0,))
    one = [ChannelState(1.0, 1.0, 1.0, 1.0)]
    text = run_solve(cfg, one)
    assert "e+180" in text
    _assert_same_text(text, _reference_solve_json(cfg, one))
    # a low PNC target leaves faded states silent: 0.0 rates and powers
    cfg = ExperimentConfig(lambdas=(0.1,), init_mode=Mode.PNC, epsilon=1.0)
    states = sample_states(300, 7)
    text = run_solve(cfg, states)
    assert '"rate_u": 0.0' in text and '"power_u": 0.0' in text
    _assert_same_text(text, _reference_solve_json(cfg, states))


# integer texts (repr adds ".0"), exponents 11 to 16 (repr writes 12-15 out),
# subnormals (repr is shorter than 12 digits) and plain values around them
EDGE_VALUES = [0.0, -0.0, 1.0, 3.0, 2.9999999999999, 0.99999999999999,
               99999999999.95, 1e12, 1.234e13, 9.99999999999e15, 1e16,
               5e-324, 1.23456789e-315, 2.3e-308, 1e300, 0.1, 1.5, 1e-5, 123456.7890123]


@pytest.mark.parametrize("n", [len(EDGE_VALUES), _BLOCK - 1, _BLOCK, _BLOCK + 1])
def test_per_state_writer_matches_json_dumps_at_edge_values(n):
    import numpy as np

    from twrelay.allocation import StateAllocations
    from twrelay.cli import _per_state_json

    down = np.resize(EDGE_VALUES, n)
    up = np.roll(down, 1)  # zero rates pair with zero powers in each phase
    pnc = np.arange(n) % 3 == 0
    per = StateAllocations(pnc, up, down, up, down)
    items = [{"mode": ("pnc" if m else "spc-dnc"), "rate_u": ru, "rate_d": rd,
              "power_u": pu, "power_d": pd}
             for m, ru, rd, pu, pd in zip(pnc.tolist(), up.tolist(), down.tolist(),
                                          up.tolist(), down.tolist())]
    want = json.dumps(_round12({"per_state": items}), sort_keys=True, indent=2)
    _assert_same_text('{\n  "per_state": ' + "".join(_per_state_json(per)) + "\n}", want)


def test_solve_builds_no_per_state_objects(tmp_path, monkeypatch):
    from twrelay import StateAllocation

    path, out = tmp_path / "states.csv", tmp_path / "out.json"
    save_states(sample_states(2000, 9), path)
    built = {ChannelState: 0, StateAllocation: 0}
    for cls in built:
        def counted(self, _inner=cls.__post_init__, _cls=cls):
            built[_cls] += 1
            _inner(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    ChannelState(1.0, 1.0, 1.0, 1.0)
    assert built[ChannelState] == 1  # the counter is live
    built[ChannelState] = 0
    assert main(["solve", "--states", str(path), "--lambda", "1.0", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["per_state"]) == 2000
    assert built == {ChannelState: 0, StateAllocation: 0}
