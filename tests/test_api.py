"""The public API and the names the benchmark harness rebinds or calls.

A refactor that renames one of these breaks callers; a renamed hook of
`benchmarks/run.py` would silently drop its span from the layered report.
"""

import dataclasses
import inspect

import twrelay
from twrelay import allocation, channel, cli, switching

PUBLIC = [
    "Allocation", "ChannelState", "FadingModel", "GridSpec", "KktPoint", "KktResiduals",
    "Mode", "OracleResult", "ProbeResult", "SolverOptions", "StateAllocation",
    "StateAllocations", "States", "SwitchReport", "TimeSplit", "brute_force_fixed_modes",
    "dnc_rate_given_beta1", "dnc_uplink_sum_power", "dnc_uplink_user_powers",
    "downlink_power", "downlink_rate_given_beta2", "energy_gap", "kkt_residuals",
    "load_states", "midpoint_convexity_probe", "perspective_downlink_energy",
    "perspective_energy", "pnc_rate_given_beta1", "pnc_uplink_rate", "pnc_uplink_sum_power",
    "prefer_pnc", "sample_states", "save_states", "scan_split_energies", "solve_baseline",
    "solve_beta1", "solve_beta2", "solve_fixed_modes", "solve_switching",
]

# parameter names and defaults; annotations are left out
SIGNATURES = {
    "brute_force_fixed_modes": "(states, modes, target_rate, grid=None)",
    "dnc_rate_given_beta1": "(beta1, state)",
    "dnc_uplink_sum_power": "(rate, state)",
    "dnc_uplink_user_powers": "(rate, state)",
    "downlink_power": "(rate, state)",
    "downlink_rate_given_beta2": "(beta2, state)",
    "energy_gap": "(rate, state)",
    "kkt_residuals": "(alloc, states, modes=None)",
    "load_states": "(path)",
    "midpoint_convexity_probe": "(fn, t_range, f_range, samples, seed, tol=1e-12)",
    "perspective_downlink_energy": "(state)",
    "perspective_energy": "(state, mode)",
    "pnc_rate_given_beta1": "(beta1, state)",
    "pnc_uplink_rate": "(snr)",
    "pnc_uplink_sum_power": "(rate, state)",
    "prefer_pnc": "(rate, state)",
    "sample_states": "(n, seed, model=FadingModel(kind='rayleigh', reciprocal=True, states=()))",
    "save_states": "(states, path)",
    "scan_split_energies": "(states, modes, target_rate, f_values, opts=None)",
    "solve_baseline": "(states, target_rate, mode, opts=None)",
    "solve_beta1": "(states, modes, target_avg_rate, opts=None)",
    "solve_beta2": "(states, target_avg_rate, opts=None)",
    "solve_fixed_modes": "(states, modes, target_rate, opts=None)",
    "solve_switching": "(states, target_rate, epsilon=0.0001, max_iter=200, "
                       "init_mode=<Mode.SPCDNC: 'spc-dnc'>, opts=None)",
}

SOLVER_OPTIONS = [("rate_rtol", 1e-9), ("f_tol", 1e-6), ("f_lo", 1e-3), ("f_hi", 0.999),
                  ("max_bisect_iter", 200), ("refine_uplink", True)]

# rebound by benchmarks/run.py (workload_boundaries) or called by
# benchmarks/workloads.py and benchmarks/layers.py
BENCHMARK_HOOKS = [
    (cli, "load_states"), (cli, "sample_states"), (cli, "save_states"),
    (cli, "solve_switching"), (cli, "solve_baseline"), (cli, "solve_fixed_modes"),
    (cli, "brute_force_fixed_modes"), (switching, "solve_fixed_modes"),
    (switching, "prefer_pnc"), (cli, "battery_instances"), (cli, "_agreement_check"),
    (cli, "_mode_vectors"), (cli, "run_sweep"), (cli, "sweep_csv"), (cli, "run_solve"),
    (cli, "run_validate"), (cli, "main"), (cli, "ExperimentConfig"),
    (channel, "sample_states"), (channel, "load_states"), (switching, "solve_baseline"),
    (switching, "solve_switching"), (allocation, "kkt_residuals"),
    (allocation, "solve_beta1"), (allocation, "solve_beta2"),
    (allocation, "scan_split_energies"),
]


def _bare(sig: inspect.Signature) -> str:
    empty = inspect.Parameter.empty
    return str(sig.replace(parameters=[p.replace(annotation=empty)
                                       for p in sig.parameters.values()],
                           return_annotation=empty))


def test_public_names():
    assert twrelay.__all__ == PUBLIC


def test_public_function_signatures():
    functions = {name: getattr(twrelay, name) for name in twrelay.__all__
                 if inspect.isfunction(getattr(twrelay, name))}
    assert {name: _bare(inspect.signature(fn)) for name, fn in functions.items()} == SIGNATURES


def test_solver_option_fields():
    fields = dataclasses.fields(twrelay.SolverOptions)
    assert [(f.name, f.default) for f in fields] == SOLVER_OPTIONS


def test_benchmark_hooks_exist():
    missing = [f"{m.__name__}.{name}" for m, name in BENCHMARK_HOOKS
               if not callable(getattr(m, name, None))]
    assert missing == []
