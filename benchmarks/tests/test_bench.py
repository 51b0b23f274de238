"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root: python3 -m pytest benchmarks/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--size", "tiny"])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed_with_units(capsys, workload):
    result = bench(capsys, workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_are_printed_and_self_times_add_up(capsys, workload):
    result = bench(capsys, workload, 1)
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == want
    parts = ("cli.self_s", "channel.self_s", "switching.self_s", "allocation.fixed_solve_s",
             "ratepower.prefer_pnc_s", "oracle.busy_s")
    total = sum(metrics[p]["value"] for p in parts)
    assert total == pytest.approx(metrics["trace.op_s"]["value"], rel=1e-9)
    assert metrics["trace.self_gap_frac"]["value"] < 1e-9
    assert metrics["allocation.fixed_solve_calls"]["value"] >= 1


def _wrong_sweep(cli, monkeypatch):
    real = cli.run_sweep

    def run_sweep(config):
        return [dataclasses.replace(r, energy_switch=2.0 * r.energy_dnc_only)
                for r in real(config)]

    monkeypatch.setattr(cli, "run_sweep", run_sweep)


def _wrong_solve(cli, monkeypatch):
    real = cli.run_solve

    def run_solve(config, states):
        doc = json.loads(real(config, states))
        for s in doc["per_state"]:
            s["rate_u"] *= 0.99
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    monkeypatch.setattr(cli, "run_solve", run_solve)


def _wrong_oracle(cli, monkeypatch):
    real = cli.brute_force_fixed_modes

    def brute_force_fixed_modes(states, modes, target_rate, grid=None):
        out = real(states, modes, target_rate, grid)
        return dataclasses.replace(out, energy=1.01 * out.energy)

    monkeypatch.setattr(cli, "brute_force_fixed_modes", brute_force_fixed_modes)


@pytest.mark.parametrize("workload,inject", [
    ("sweep", _wrong_sweep), ("solve-50k", _wrong_solve), ("validate-oracle", _wrong_oracle)])
def test_injected_wrong_answer_raises_failed_frac(capsys, monkeypatch, workload, inject):
    inject(run.import_twrelay().cli, monkeypatch)
    result = bench(capsys, workload, 1)
    assert not result["correct"]
    # the seed-7 reference check does not go through the patched entry point
    assert 1 <= result["failed"] == result["attempted"] - 1
    assert result["metrics"]["failed_frac"]["value"] == result["failed"] / result["attempted"]


def test_recorder_self_times_and_restore():
    rec = tracing.Recorder()
    mod = type(sys)("layer_mod")
    mod.leaf = lambda x: x + 1

    def mid(x):
        return mod.leaf(x) + mod.leaf(x)

    def boom():
        raise ValueError("bad")

    mod.mid, mod.boom = mid, boom
    original_leaf = mod.leaf
    with rec.installed([(mod, "leaf", "b.leaf", False), (mod, "mid", "a.mid", True),
                        (mod, "boom", "a.boom", False)]):
        assert rec.wrap("root.op", lambda: mod.mid(1))() == 4
        with pytest.raises(ValueError):
            mod.boom()
    assert mod.leaf is original_leaf and mod.mid is mid and mod.boom is boom
    spans = rec.reset()
    assert [s[tracing.NAME] for s in spans] == ["root.op", "a.mid", "b.leaf", "b.leaf", "a.boom"]
    assert [s[tracing.PARENT] for s in spans] == [-1, 0, 1, 1, -1]
    assert spans[1][tracing.PAYLOAD] == ((1,), {}, 4)
    assert isinstance(spans[4][tracing.PAYLOAD], ValueError)
    selfs = tracing.self_times(spans)
    assert sum(selfs[:4]) == pytest.approx(tracing.duration(spans[0]), abs=1e-12)
    assert rec.spans == []


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
