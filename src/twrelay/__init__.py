"""Energy-minimal transmission scheduling for two-way relay networks.

Two sources exchange data through a half-duplex relay over block-fading
channels. Per fading state the relay either decodes the XOR of both
messages directly (physical-layer network coding) or decodes both
messages with superposition coding and successive cancellation, then
broadcasts. This package picks the per-state strategy, the rate and
power schedule, and the uplink/downlink time split that meet a long-term
average exchange-rate target at least average energy.
"""

from .allocation import (Allocation, KktPoint, KktResiduals, SolverOptions,
                         StateAllocation, StateAllocations, TimeSplit, dnc_rate_given_beta1,
                         downlink_rate_given_beta2, kkt_residuals,
                         perspective_downlink_energy, perspective_energy,
                         pnc_rate_given_beta1, scan_split_energies, solve_beta1,
                         solve_beta2, solve_fixed_modes)
from .channel import (ChannelState, FadingModel, States, load_states, sample_states,
                      save_states)
from .oracle import (GridSpec, OracleResult, ProbeResult,
                     brute_force_fixed_modes, midpoint_convexity_probe)
from .ratepower import (Mode, dnc_uplink_sum_power, dnc_uplink_user_powers,
                        downlink_power, energy_gap, pnc_uplink_rate,
                        pnc_uplink_sum_power, prefer_pnc)
from .switching import SwitchReport, solve_baseline, solve_switching

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "ChannelState",
    "FadingModel",
    "GridSpec",
    "KktPoint",
    "KktResiduals",
    "Mode",
    "OracleResult",
    "ProbeResult",
    "SolverOptions",
    "StateAllocation",
    "StateAllocations",
    "States",
    "SwitchReport",
    "TimeSplit",
    "brute_force_fixed_modes",
    "dnc_rate_given_beta1",
    "dnc_uplink_sum_power",
    "dnc_uplink_user_powers",
    "downlink_power",
    "downlink_rate_given_beta2",
    "energy_gap",
    "kkt_residuals",
    "load_states",
    "midpoint_convexity_probe",
    "perspective_downlink_energy",
    "perspective_energy",
    "pnc_rate_given_beta1",
    "pnc_uplink_rate",
    "pnc_uplink_sum_power",
    "prefer_pnc",
    "sample_states",
    "save_states",
    "scan_split_energies",
    "solve_baseline",
    "solve_beta1",
    "solve_beta2",
    "solve_fixed_modes",
    "solve_switching",
]
