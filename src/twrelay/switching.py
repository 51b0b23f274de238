"""Iterative per-state strategy switching.

The joint problem (pick a strategy per fading state, then allocate rates,
powers, and the time split) is nonconvex in the strategy assignment.
This module alternates two steps that each never increase energy: solve
the convex fixed-assignment problem, then reselect per state whichever
uplink strategy is cheaper at the rate just allocated. Iteration stops
when the relative energy improvement falls below epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .allocation import Allocation, SolverOptions, solve_fixed_modes
from .channel import ChannelState
from .ratepower import Mode, prefer_pnc


@dataclass(frozen=True)
class SwitchReport:
    """Outcome of the switching iteration.

    energy_trace holds the accepted average energy after every solve, so
    it is non-increasing by construction; iterations equals its length.
    mode_counts is (PNC states, SPC-DNC states) at termination. converged
    is False only when the iteration cap ran out before the relative
    energy change dropped below epsilon.
    """

    final: Allocation
    energy_trace: tuple[float, ...]
    iterations: int
    epsilon: float
    mode_counts: tuple[int, int]
    converged: bool

    def __post_init__(self):
        object.__setattr__(self, "energy_trace", tuple(self.energy_trace))


def _reselect(alloc: Allocation, states: Sequence[ChannelState],
              modes: Sequence[Mode]) -> list[Mode]:
    """Cheaper strategy per state at the current rate; silent states keep theirs."""
    out = []
    for sa, state, old in zip(alloc.per_state, states, modes):
        if sa.rate_u > 0.0:
            out.append(Mode.PNC if prefer_pnc(sa.rate_u, state) else Mode.SPCDNC)
        else:
            out.append(old)
    return out


def _report(alloc: Allocation, trace: list[float], epsilon: float,
            converged: bool) -> SwitchReport:
    n_pnc = sum(1 for sa in alloc.per_state if sa.mode is Mode.PNC)
    return SwitchReport(
        final=alloc,
        energy_trace=tuple(trace),
        iterations=len(trace),
        epsilon=epsilon,
        mode_counts=(n_pnc, len(alloc.per_state) - n_pnc),
        converged=converged,
    )


def solve_switching(states: Sequence[ChannelState], target_rate: float,
                    epsilon: float = 1e-4, max_iter: int = 200,
                    init_mode: Mode = Mode.SPCDNC,
                    opts: SolverOptions | None = None) -> SwitchReport:
    """Run the switching iteration from a uniform initial assignment.

    Every state starts in init_mode. Each round solves the fixed-assignment
    problem, reselects strategies at the allocated rates, and accepts the
    re-solve only if it does not increase energy; a re-solve that changes
    no strategy, or fails to improve, terminates the iteration. The first
    solve is the init_mode baseline, bit for bit (`cli.run_sweep` reads it
    from energy_trace[0]); a zero target stops there at zero energy.
    """
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    modes = [init_mode] * len(states)
    alloc = solve_fixed_modes(states, modes, target_rate, opts)
    trace = [alloc.avg_energy]
    converged = False
    while not converged and len(trace) < max_iter:
        new_modes = _reselect(alloc, states, modes)
        if new_modes == modes:
            converged = True
            break
        candidate = solve_fixed_modes(states, new_modes, target_rate, opts)
        if candidate.avg_energy > alloc.avg_energy:
            # strategy flips promised savings the re-solve could not realize;
            # keep the best allocation found
            converged = True
            break
        delta = abs(candidate.avg_energy - alloc.avg_energy)
        rel = delta / candidate.avg_energy if candidate.avg_energy > 0.0 else 0.0
        modes, alloc = new_modes, candidate
        trace.append(alloc.avg_energy)
        if rel < epsilon:
            converged = True
    return _report(alloc, trace, epsilon, converged)


def solve_baseline(states: Sequence[ChannelState], target_rate: float, mode: Mode,
                   opts: SolverOptions | None = None) -> Allocation:
    """Fixed-assignment solution with every state forced to one strategy."""
    return solve_fixed_modes(states, [mode] * len(states), target_rate, opts)
