"""Release gate: the full acceptance battery in checklist form.

Each test covers one numbered criterion and prints a single
`criterion NN [PASS|FAIL] ...` line (visible with -s, or on failure),
so a verbose pytest run reads as a sign-off sheet. The 1000-state
seed-7 draw and its sweep are computed once and shared.
"""

import time

import numpy as np
import pytest

from twrelay import (
    ChannelState,
    Mode,
    brute_force_fixed_modes,
    dnc_uplink_sum_power,
    energy_gap,
    midpoint_convexity_probe,
    perspective_downlink_energy,
    perspective_energy,
    pnc_uplink_sum_power,
    prefer_pnc,
    sample_states,
    solve_fixed_modes,
    solve_switching,
)
from twrelay.cli import DEFAULT_LAMBDAS, ExperimentConfig, battery_instances, run_sweep, sweep_csv

UNIT = ChannelState(1.0, 1.0, 1.0, 1.0)


def flag(num: int, ok: bool, label: str) -> bool:
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {label}")
    return ok


@pytest.fixture(scope="module")
def sweep_runs():
    cfg = ExperimentConfig(lambdas=DEFAULT_LAMBDAS)
    t0 = time.time()
    first = run_sweep(cfg)
    elapsed = time.time() - t0
    second = run_sweep(cfg)
    return first, second, elapsed


@pytest.fixture(scope="module")
def switch_reports():
    states = sample_states(1000, 7)
    return {lam: solve_switching(states, lam) for lam in DEFAULT_LAMBDAS}


def test_criterion_01_formula_battery():
    checks = [
        (pnc_uplink_sum_power(1.0, UNIT), 3.0),
        (pnc_uplink_sum_power(2.0, UNIT), 7.0),
        (pnc_uplink_sum_power(1.0, ChannelState(1.0, 2.0, 1.0, 2.0)), 2.25),
        (dnc_uplink_sum_power(1.0, UNIT), 3.0),
        (dnc_uplink_sum_power(2.0, UNIT), 15.0),
        (dnc_uplink_sum_power(1.0, ChannelState(2.0, 1.0, 2.0, 1.0)), 2.0),
        (energy_gap(1.0, UNIT), 0.0),
        (energy_gap(2.0, UNIT), -8.0),
        (energy_gap(0.5, UNIT), 2.0 * 2.0 ** 0.5 - 2.0),
    ]
    worst = max(abs(got - want) for got, want in checks)
    ok = flag(1, worst <= 1e-9, f"nine formula examples, worst abs error {worst:.1e}")
    assert ok


def test_criterion_02_equal_gain_switching_law():
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(1000):
        g = float(rng.exponential(1.0))
        r = float(rng.uniform(0.05, 4.0))
        s = ChannelState(g, g, g, g)
        ok = ok and prefer_pnc(r, s) == (r >= 1.0)
    tie = prefer_pnc(1.0, UNIT)
    ok = flag(2, ok and tie, "equal gains prefer PNC exactly when rate >= 1")
    assert ok


def test_criterion_03_gap_expressions_agree():
    rng = np.random.default_rng(99)
    worst_rel = 0.0
    signs_ok = True
    for _ in range(10_000):
        g1, g2 = rng.exponential(1.0, size=2)
        s = ChannelState(float(g1), float(g2), float(g1), float(g2))
        r = float(rng.uniform(0.05, 4.0))
        pnc, dnc = pnc_uplink_sum_power(r, s), dnc_uplink_sum_power(r, s)
        direct = pnc - dnc
        x = 2.0 ** r
        algebraic = x * (2.0 - x) / s.g_Mr + 0.5 / s.g_mr - 0.5 / s.g_Mr
        # relative to the power scale: the gap itself crosses zero
        worst_rel = max(worst_rel, abs(direct - algebraic) / max(pnc, dnc))
        signs_ok = signs_ok and prefer_pnc(r, s) == (direct <= 0.0)
        signs_ok = signs_ok and abs(energy_gap(r, s) - direct) == 0.0
    ok = flag(3, worst_rel <= 1e-12 and signs_ok,
              f"gap forms agree on 10^4 instances, worst rel {worst_rel:.1e}")
    assert ok


def test_criterion_04_solver_matches_oracle():
    t0 = time.time()
    worst = 0.0
    agree = True
    for seed, n, lam in battery_instances():
        states = sample_states(n, seed)
        vectors = {
            "pnc": [Mode.PNC] * n,
            "dnc": [Mode.SPCDNC] * n,
            "mixed": [Mode.PNC if i % 2 == 0 else Mode.SPCDNC for i in range(n)],
        }
        for name, modes in vectors.items():
            solver = solve_fixed_modes(states, modes, lam)
            oracle = brute_force_fixed_modes(states, modes, lam)
            rel = abs(solver.avg_energy - oracle.energy) / oracle.energy
            worst = max(worst, rel)
            agree = agree and rel <= 1e-3
    elapsed = time.time() - t0
    ok = flag(4, agree and elapsed < 120.0,
              f"oracle battery worst rel gap {worst:.1e} in {elapsed:.0f}s")
    assert ok


def test_criterion_05_dominance_and_baseline_crossover(sweep_runs):
    rows, _, elapsed = sweep_runs
    dominant = all(
        r.energy_switch <= min(r.energy_pnc_only, r.energy_dnc_only) + 1e-9 for r in rows
    )
    low, high = rows[0], rows[-1]
    crossover = (low.energy_dnc_only < low.energy_pnc_only
                 and high.energy_pnc_only < high.energy_dnc_only)
    ok = flag(5, dominant and crossover and elapsed < 60.0,
              f"switching dominates everywhere; crossover {crossover} "
              f"(low-rate baselines pnc {low.energy_pnc_only:.6f} "
              f"dnc {low.energy_dnc_only:.6f}); sweep {elapsed:.0f}s")
    assert dominant
    assert elapsed < 60.0
    assert crossover
    assert ok


def test_criterion_06_convergence_budget(switch_reports):
    ok = True
    for rep in switch_reports.values():
        trace = rep.energy_trace
        ok = ok and rep.iterations <= 50 and rep.epsilon == 1e-4
        ok = ok and all(b <= a + 1e-12 * max(1.0, a) for a, b in zip(trace, trace[1:]))
    worst_iters = max(rep.iterations for rep in switch_reports.values())
    ok = flag(6, ok, f"every sweep point converges in <= 50 iterations (worst {worst_iters})")
    assert ok


def test_criterion_07_rate_feasibility(switch_reports):
    worst = 0.0
    for lam, rep in switch_reports.items():
        final = rep.final
        worst = max(worst, abs(final.avg_rate_u - lam) / lam,
                    abs(final.avg_rate_d - lam) / lam)
    ok = flag(7, worst <= 1e-6, f"avg rates meet the target, worst rel gap {worst:.1e}")
    assert ok


def test_criterion_08_convexity_probes():
    state = ChannelState(1.3, 0.7, 0.9, 1.8)
    probes = [
        midpoint_convexity_probe(perspective_energy(state, Mode.PNC),
                                 (0.0, 3.0), (0.05, 0.95), 10_000, 42),
        midpoint_convexity_probe(perspective_energy(state, Mode.SPCDNC),
                                 (0.0, 3.0), (0.05, 0.95), 10_000, 43),
        midpoint_convexity_probe(perspective_downlink_energy(state),
                                 (0.0, 3.0), (0.05, 0.95), 10_000, 44),
    ]
    control = midpoint_convexity_probe(lambda t, f: -t * t,
                                       (0.0, 3.0), (0.05, 0.95), 10_000, 45)
    ok = flag(8, all(p.passed for p in probes) and not control.passed,
              "all three perspective energies convex; concave control rejected")
    assert ok


def test_criterion_09_sweep_is_deterministic(sweep_runs):
    first, second, _ = sweep_runs
    same = sweep_csv(first).encode() == sweep_csv(second).encode()
    ok = flag(9, same, "identical seed reproduces the sweep CSV byte for byte")
    assert ok
