"""Per-state strategy switching: convergence, dominance over the
single-strategy baselines, and seeded regressions on the standard draw."""

import numpy as np
import pytest

from twrelay import (Mode, SolverOptions, prefer_pnc, sample_states, solve_baseline,
                     solve_switching)

# frozen outputs of the 1000-state seed-7 draw (first run of this build)
TRACE_SEED7_LAM2 = (119.94415315973495, 57.92491617664933, 57.76837591300949)
MODES_SEED7_LAM2 = (892, 108)
PNC_ONLY_SEED7 = {0.25: 0.9244643416488798, 3.0: 256.8635041593319}
DNC_ONLY_SEED7 = {0.25: 0.9312313818517889, 3.0: 871.9666999254872}


def test_zero_target_is_trivial():
    states = sample_states(5, 3)
    rep = solve_switching(states, 0.0)
    assert rep.energy_trace == (0.0,)
    assert rep.iterations == 1
    assert rep.converged
    assert rep.final.avg_energy == 0.0


def test_seed7_high_rate_regression(seed7_states):
    rep = solve_switching(seed7_states, 2.0)
    assert rep.converged
    assert rep.iterations == 3
    assert rep.mode_counts == MODES_SEED7_LAM2
    for got, want in zip(rep.energy_trace, TRACE_SEED7_LAM2):
        assert abs(got - want) <= 1e-9 * want
    # the first trace entry is the all-SPC-DNC solve itself
    dnc = solve_baseline(seed7_states, 2.0, Mode.SPCDNC)
    assert abs(rep.energy_trace[0] - dnc.avg_energy) <= 1e-12 * dnc.avg_energy


@pytest.mark.parametrize("mode", list(Mode))
def test_first_trace_entry_is_the_init_mode_baseline(mode):
    # the sweep reads this baseline from the trace instead of solving it twice
    states = sample_states(60, 5)
    for lam in (0.25, 1.0, 3.0):
        rep = solve_switching(states, lam, init_mode=mode)
        assert rep.energy_trace[0] == solve_baseline(states, lam, mode).avg_energy


def test_trace_never_increases(seed7_states):
    for lam in (0.5, 2.0):
        rep = solve_switching(seed7_states, lam)
        trace = rep.energy_trace
        assert all(b <= a + 1e-12 * max(1.0, a) for a, b in zip(trace, trace[1:]))
        assert rep.iterations <= 50


def test_switching_dominates_both_baselines(seed7_states):
    for lam in (0.5, 2.0):
        rep = solve_switching(seed7_states, lam)
        pnc = solve_baseline(seed7_states, lam, Mode.PNC)
        dnc = solve_baseline(seed7_states, lam, Mode.SPCDNC)
        assert rep.final.avg_energy <= min(pnc.avg_energy, dnc.avg_energy) + 1e-9


def test_low_rate_baseline_ordering(seed7_states):
    """At the lowest sweep rate the SPC-DNC-only baseline is expected to
    undercut PNC-only; the two curves cross as the rate grows.

    Known failure: once near-silent PNC states are scheduled exactly, the
    PNC-only curve drops below SPC-DNC-only across the whole sweep range
    on this draw, so no crossover remains.
    """
    pnc = solve_baseline(seed7_states, 0.25, Mode.PNC)
    dnc = solve_baseline(seed7_states, 0.25, Mode.SPCDNC)
    assert abs(pnc.avg_energy - PNC_ONLY_SEED7[0.25]) <= 1e-9
    assert abs(dnc.avg_energy - DNC_ONLY_SEED7[0.25]) <= 1e-9
    assert dnc.avg_energy < pnc.avg_energy


def test_low_rate_crossover_under_the_plain_map(seed7_states):
    # with the plain water-filling map (no silencing refinement) the
    # weakly active PNC states keep their fixed cost, and the baselines
    # cross between the two lowest sweep targets
    opts = SolverOptions(refine_uplink=False)

    def baselines(lam):
        return (solve_baseline(seed7_states, lam, Mode.PNC, opts).avg_energy,
                solve_baseline(seed7_states, lam, Mode.SPCDNC, opts).avg_energy)

    pnc, dnc = baselines(0.25)
    assert dnc < pnc
    pnc, dnc = baselines(0.5)
    assert pnc < dnc


def test_high_rate_baseline_ordering(seed7_states):
    pnc = solve_baseline(seed7_states, 3.0, Mode.PNC)
    dnc = solve_baseline(seed7_states, 3.0, Mode.SPCDNC)
    assert abs(pnc.avg_energy - PNC_ONLY_SEED7[3.0]) <= 1e-6
    assert abs(dnc.avg_energy - DNC_ONLY_SEED7[3.0]) <= 1e-6
    assert pnc.avg_energy < dnc.avg_energy


def test_equal_gain_state_lands_on_pnc_at_high_rate(unit_state):
    # per-state uplink rate comes out well above 1, so the reselection
    # must move the single state to PNC regardless of the starting side
    for init in (Mode.SPCDNC, Mode.PNC):
        rep = solve_switching([unit_state], 1.2, init_mode=init)
        assert rep.mode_counts == (1, 0)
        assert rep.final.per_state[0].mode is Mode.PNC
        assert rep.final.per_state[0].rate_u > 1.0


def test_termination_is_a_fixed_point(seed7_states):
    rep = solve_switching(seed7_states, 2.0)
    for sa, state in zip(rep.final.per_state, seed7_states):
        if sa.rate_u > 0.0:
            want = Mode.PNC if prefer_pnc(sa.rate_u, state) else Mode.SPCDNC
            assert sa.mode is want


def test_init_side_is_a_diagnostic_not_a_contract():
    # both starts must dominate their own baseline; whether they meet in
    # the same local optimum is logged, not asserted
    states = sample_states(150, 5)
    from_dnc = solve_switching(states, 1.0, init_mode=Mode.SPCDNC)
    from_pnc = solve_switching(states, 1.0, init_mode=Mode.PNC)
    dnc = solve_baseline(states, 1.0, Mode.SPCDNC)
    pnc = solve_baseline(states, 1.0, Mode.PNC)
    assert from_dnc.final.avg_energy <= dnc.avg_energy + 1e-9
    assert from_pnc.final.avg_energy <= pnc.avg_energy + 1e-9
    rel = abs(from_dnc.final.avg_energy - from_pnc.final.avg_energy)
    rel /= max(from_dnc.final.avg_energy, from_pnc.final.avg_energy)
    print(f"init sensitivity at lambda=1.0: rel energy split {rel:.2e}")


def test_small_draw_convergence_sweep():
    rng_seeds = (11, 12)
    for seed in rng_seeds:
        states = sample_states(200, seed)
        for lam in (0.5, 1.5):
            rep = solve_switching(states, lam)
            pnc = solve_baseline(states, lam, Mode.PNC)
            dnc = solve_baseline(states, lam, Mode.SPCDNC)
            assert rep.iterations <= 50
            assert rep.final.avg_energy <= min(pnc.avg_energy, dnc.avg_energy) + 1e-9
            trace = rep.energy_trace
            assert all(b <= a + 1e-12 * max(1.0, a) for a, b in zip(trace, trace[1:]))


def test_iteration_cap_reported_not_raised(seed7_states):
    rep = solve_switching(seed7_states[:50], 1.0, max_iter=1)
    assert rep.iterations == 1
    assert not rep.converged


def test_parameter_validation(unit_state):
    with pytest.raises(ValueError, match="epsilon"):
        solve_switching([unit_state], 1.0, epsilon=0.0)
    with pytest.raises(ValueError, match="max_iter"):
        solve_switching([unit_state], 1.0, max_iter=0)
