"""Brute-force ground truth for small instances and the convexity probe."""

import math
import warnings

import numpy as np
import pytest

from twrelay import (
    ChannelState,
    GridSpec,
    Mode,
    brute_force_fixed_modes,
    midpoint_convexity_probe,
    perspective_downlink_energy,
    perspective_energy,
    sample_states,
    solve_fixed_modes,
)
from twrelay import oracle
from twrelay.cli import _mode_vectors
from twrelay.oracle import _phase_minima, _power_curves, _unique_rows

UNIT = ChannelState(1.0, 1.0, 1.0, 1.0)


def test_zero_target_has_zero_energy():
    res = brute_force_fixed_modes([UNIT], [Mode.PNC], 0.0)
    assert res.energy == 0.0


def test_single_state_agreement_both_strategies():
    for mode in (Mode.PNC, Mode.SPCDNC):
        solver = solve_fixed_modes([UNIT], [mode], 0.5)
        oracle = brute_force_fixed_modes([UNIT], [mode], 0.5)
        rel = abs(solver.avg_energy - oracle.energy) / oracle.energy
        assert rel <= 1e-3, (mode, rel)


def test_dnc_single_state_oracle_near_closed_form():
    res = brute_force_fixed_modes([UNIT], [Mode.SPCDNC], 0.5)
    exact = 2.0 * math.sqrt(2.0) - 1.0
    assert abs(res.energy - exact) / exact <= 1e-3


def test_mixed_two_state_agreement():
    states = sample_states(2, 314)
    modes = [Mode.PNC, Mode.SPCDNC]
    solver = solve_fixed_modes(states, modes, 0.75)
    oracle = brute_force_fixed_modes(states, modes, 0.75)
    assert abs(solver.avg_energy - oracle.energy) / oracle.energy <= 1e-3


@pytest.mark.parametrize("seed,n,lam,label", [
    (154131935, 3, 0.25, "mixed"),
    (22641345, 3, 0.5, "pnc"),
    (369111370, 3, 0.25, "mixed"),
    (778526663, 3, 0.5, "pnc"),
    (799609893, 3, 0.5, "mixed"),
])
def test_silent_set_is_chosen_outside_the_split_search(seed, n, lam, label):
    # instances where choosing the silent PNC set afresh at every split
    # trapped the split search in the basin of the wrong set, 0.4-1.4%
    # above the oracle
    states = sample_states(n, seed)
    if label == "pnc":
        modes = [Mode.PNC] * n
    else:
        modes = [Mode.PNC if i % 2 == 0 else Mode.SPCDNC for i in range(n)]
    solver = solve_fixed_modes(states, modes, lam)
    oracle = brute_force_fixed_modes(states, modes, lam)
    assert abs(solver.avg_energy - oracle.energy) / oracle.energy <= 1e-3


def test_grid_points_never_beat_the_solver():
    states = sample_states(2, 11)
    modes = [Mode.SPCDNC, Mode.SPCDNC]
    solver = solve_fixed_modes(states, modes, 0.5)
    oracle = brute_force_fixed_modes(states, modes, 0.5)
    assert oracle.energy >= solver.avg_energy - 1e-6 * max(1.0, solver.avg_energy)


def test_halving_the_grid_barely_moves_the_energy():
    grid = GridSpec()
    cases = [
        ([UNIT], [Mode.PNC], 0.5),
        (sample_states(2, 9), [Mode.SPCDNC, Mode.PNC], 0.8),
    ]
    for states, modes, lam in cases:
        coarse = brute_force_fixed_modes(states, modes, lam, grid)
        fine = brute_force_fixed_modes(states, modes, lam, grid.halved())
        rel = abs(coarse.energy - fine.energy) / max(coarse.energy, fine.energy)
        assert rel < 5e-3, (lam, rel)


def test_oracle_spends_the_whole_time_budget():
    # the search allows f_u + f_d < 1; slack never wins, which backs the
    # solver's hard f_d = 1 - f_u reduction
    res = brute_force_fixed_modes([UNIT], [Mode.PNC], 0.5)
    f_cell = 1.0 / (res.grid.n_f + 1)
    assert res.f_u + res.f_d >= 1.0 - f_cell - 1e-12


def test_oracle_argmin_is_feasible():
    states = sample_states(2, 21)
    modes = [Mode.PNC, Mode.PNC]
    res = brute_force_fixed_modes(states, modes, 0.6)
    assert abs(res.f_u * np.mean(res.rates_u) - 0.6) <= 1e-9
    assert abs(res.f_d * np.mean(res.rates_d) - 0.6) <= 1e-9


def test_oracle_is_deterministic():
    states = sample_states(3, 77)
    modes = [Mode.PNC, Mode.SPCDNC, Mode.PNC]
    a = brute_force_fixed_modes(states, modes, 0.4)
    b = brute_force_fixed_modes(states, modes, 0.4)
    assert a.energy == b.energy
    assert a.f_u == b.f_u


# whole results of battery instances, (seed, n, target, modes) ->
# (energy, f_u, f_d, rates_u, rates_d), or the error of a target beyond
# what the grid carries; exact, so that any change to the oracle that
# moves a result, or its argmin to a tied row, shows
ORACLE_PINS = [
    ((1104, 4, 0.25, "pnc"), (1.2580991053602673, 0.52, 0.48,
                              (0.0, 0.0, 0.0, 1.923076923076923),
                              (0.0, 0.0, 0.15193194646875, 1.9314013868645834))),
    ((1103, 3, 1.0, "pnc"), (13.159079445198941, 0.55, 0.45,
                             (0.0, 1.741048225561818, 3.713497228983636),
                             (1.0180012414644446, 1.7077039795844444, 3.9409614456155557))),
    ((1107, 3, 0.25, "dnc"), (0.588746496424604, 0.63, 0.37,
                              (0.0, 0.790794368354365, 0.3996818221218254),
                              (0.0, 1.5161009925405404, 0.5109260344864864))),
    ((1107, 3, 0.25, "mixed"), (0.6661870324465131, 0.71, 0.29,
                                (0.0, 1.0563380281690142, 0.0),
                                (0.0, 1.7956332838370692, 0.7905736127146552))),
    ((4, 3, 2000.0, "dnc"), "no feasible grid point"),
]


@pytest.mark.parametrize("instance,pinned", ORACLE_PINS)
def test_oracle_results_are_pinned_exactly(instance, pinned):
    seed, n, lam, label = instance
    states, modes = sample_states(n, seed), _mode_vectors(n)[label]
    if isinstance(pinned, str):
        with pytest.raises(ValueError, match=pinned):
            brute_force_fixed_modes(states, modes, lam)
        return
    res = brute_force_fixed_modes(states, modes, lam)
    assert (res.energy, res.f_u, res.f_d, res.rates_u, res.rates_d) == pinned


@pytest.mark.parametrize("label", ["pnc", "dnc", "mixed"])
def test_a_target_whose_rates_overflow_is_infeasible_without_warnings(label):
    # at 1e307 target / f overflows to inf, and 0·inf at the silent entries
    # must lose the comparison, not warn
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="no feasible grid point"):
            brute_force_fixed_modes(sample_states(2, 3), _mode_vectors(2)[label], 1e307)
    assert not caught


def _masked_phase_minima(shape_mat, f_vals, target, curves):
    # the per-fraction reference: one pass per f, the power curves as
    # functions of x = 2^rate, silent states masked out with np.where
    cols = [np.ascontiguousarray(col) for col in shape_mat.T]
    power, arg = np.empty(f_vals.shape[0]), np.empty(f_vals.shape[0], dtype=int)
    with np.errstate(over="ignore"):
        for i, f in enumerate(f_vals):
            scale = target / f
            total = None
            for col, curve in zip(cols, curves):
                p = np.where(col > 0.0, curve(np.exp2(col * scale)), 0.0)
                total = p if total is None else total + p
            total = total / len(cols)
            j = int(np.argmin(total))
            power[i], arg[i] = total[j], j
    return power, arg


def _curve_functions(states, modes):
    up = [(lambda x, k=1.0 / s.g1r + 1.0 / s.g2r: (x - 0.5) * k) if mode is Mode.PNC
          else (lambda x, a=s.g_mr, b=s.g_Mr: (x - 1.0) / a + x * (x - 1.0) / b)
          for s, mode in zip(states, modes)]
    return up, [lambda x, g=s.g_rm: (x - 1.0) / g for s in states]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("block", [None, 700])
def test_phase_minima_match_the_masked_formulas(n, block, monkeypatch):
    # a small block makes many blocks, a partial last one and, for the
    # 1500-row matrix, blocks of one fraction
    if block is not None:
        monkeypatch.setattr(oracle, "_BLOCK", block)
    rng = np.random.default_rng(500 + n)
    f_vals = GridSpec().f_values()
    for rows in (1, 37, 1500):
        shapes = np.round(rng.exponential(1.0, size=(rows, n)), 12)
        shapes[rng.random((rows, n)) < 0.3] = 0.0  # silent entries
        shapes[:, rng.integers(n)] *= rng.random() < 0.3  # at times a silent state
        shapes = np.concatenate([shapes, shapes[: rows // 3]])  # tied rows
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        states = [ChannelState(*(scale * rng.exponential(1.0, 4))) for _ in range(n)]
        for modes in (_mode_vectors(n)["pnc"], _mode_vectors(n)["dnc"], _mode_vectors(n)["mixed"]):
            coefficients = _power_curves(states, modes)
            functions = _curve_functions(states, modes)
            for target in (1e-12, 1e-3, 0.5, 8.0, 300.0, 2000.0):  # 2000: 2^x overflows
                for got, want in zip(coefficients, functions):
                    power, arg = _phase_minima(shapes, f_vals, target, got)
                    ref_power, ref_arg = _masked_phase_minima(shapes, f_vals, target, want)
                    assert np.array_equal(power, ref_power), (rows, modes, target)
                    assert np.array_equal(arg, ref_arg), (rows, modes, target)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_row_dedupe_is_np_unique(n):
    # few distinct values give repeated rows and ties in the leading
    # columns; the order of the rows must be np.unique's too
    rng = np.random.default_rng(100 + n)
    values = np.array([0.0, 0.25, 1.0 / 3.0, 1.0, 2.5])
    for rows in (1, 2, 7, 300):
        a = values[rng.integers(0, values.size, size=(rows, n))]
        a[rng.random(rows) < 0.1] = rng.random(n)
        a = np.concatenate([a, a[rng.permutation(rows)[: rows // 2]]])
        assert np.array_equal(_unique_rows(a), np.unique(a, axis=0))


def test_state_count_cap():
    states = sample_states(5, 1)
    with pytest.raises(ValueError, match="up to 4"):
        brute_force_fixed_modes(states, [Mode.PNC] * 5, 0.5)


def test_bad_grid_spec_rejected():
    with pytest.raises(ValueError):
        GridSpec(n_f=1)
    with pytest.raises(ValueError):
        GridSpec(rate_floor=0.5, rate_knee=0.1)


@pytest.mark.parametrize("call, message", [
    (lambda: brute_force_fixed_modes([], [], 0.5), "at least one channel state"),
    (lambda: brute_force_fixed_modes([UNIT], [Mode.PNC] * 2, 0.5), "1 states but 2 modes"),
    (lambda: brute_force_fixed_modes([UNIT], [Mode.PNC], math.nan), "nonnegative and finite"),
    # a float count answered on a grid of k/4.5, or raised TypeError deep inside
    (lambda: GridSpec(n_f=3.5), "n_f must be an integer"),
    (lambda: GridSpec(n_lin=2.0), "n_lin must be an integer"),
    (lambda: GridSpec(refine_rounds=1.5), "refine_rounds must be an integer"),
    (lambda: GridSpec(refine_span=True), "refine_span must be an integer"),
    # an infinite bound warned "invalid value" inside the search
    (lambda: GridSpec(rate_cap=math.inf), "rate_cap"),
    (lambda: GridSpec(refine_step=math.inf), "step schedule"),
    (lambda: GridSpec(refine_rounds=-1), "refinement lattice"),
    (lambda: GridSpec(refine_span=0), "refinement lattice"),
    (lambda: GridSpec(refine_step=0.0), "step schedule"),
    (lambda: GridSpec(refine_shrink=1.0), "step schedule"),
    (lambda: midpoint_convexity_probe(lambda t, f: t, (0.0, 1.0), (0.1, 0.9), 0, 1),
     "at least one sample"),
    (lambda: midpoint_convexity_probe(lambda t, f: t, (1.0, 0.0), (0.1, 0.9), 10, 1),
     "bad probe box"),
    (lambda: midpoint_convexity_probe(lambda t, f: t, (0.0, 1.0), (0.0, 0.9), 10, 1),
     "bad probe box"),
], ids=["no-states", "mode-count", "nan-target", "float-n_f", "float-n_lin",
        "float-rounds", "bool-span", "inf-rate_cap", "inf-step", "negative-rounds",
        "zero-span", "zero-step", "shrink-one", "no-samples", "reversed-t", "zero-f"])
def test_oracle_inputs_that_describe_no_search_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_perspective_energies_pass_the_midpoint_probe():
    state = ChannelState(1.3, 0.7, 0.9, 1.8)
    fns = [
        perspective_energy(state, Mode.PNC),
        perspective_energy(state, Mode.SPCDNC),
        perspective_downlink_energy(state),
    ]
    for fn in fns:
        probe = midpoint_convexity_probe(fn, (0.0, 3.0), (0.05, 0.95), 2000, 42)
        assert probe.passed, probe.worst_violation


def test_concave_control_fails_the_probe():
    probe = midpoint_convexity_probe(lambda t, f: -t * t, (0.0, 3.0), (0.05, 0.95), 2000, 42)
    assert not probe.passed
    assert probe.worst_violation > 0.0
    assert probe.worst_pair is not None
