"""Iterative per-state strategy switching.

The joint problem (pick a strategy per fading state, then allocate rates,
powers, and the time split) is nonconvex in the strategy assignment.
This module alternates two steps that each never increase energy: solve
the convex fixed-assignment problem, then reselect per state whichever
uplink strategy is cheaper at the rate just allocated. Iteration stops
when the relative energy improvement falls below epsilon.

The states are turned into columns once (`channel.as_states`), and each
reselection is one elementwise `prefer_pnc` call on the columns of the
states that carry uplink rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .allocation import Allocation, SolverOptions, solve_fixed_modes
from .channel import ChannelState, States, as_states
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


def _reselect(alloc: Allocation, st: States) -> np.ndarray:
    """Cheaper strategy per state at the current rate, as a PNC mask; silent states keep theirs."""
    per = alloc.per_state
    active = per.rate_u > 0.0
    pnc = per.pnc.copy()
    pnc[active] = prefer_pnc(per.rate_u[active], st[active])
    return pnc


def _report(alloc: Allocation, trace: list[float], epsilon: float,
            converged: bool) -> SwitchReport:
    n_pnc = int(np.count_nonzero(alloc.per_state.pnc))
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
    st = as_states(states)
    pnc = np.full(len(st), init_mode is Mode.PNC)
    alloc = solve_fixed_modes(st, pnc, target_rate, opts)
    trace = [alloc.avg_energy]
    converged = False
    while not converged and len(trace) < max_iter:
        new_pnc = _reselect(alloc, st)
        if np.array_equal(new_pnc, pnc):
            converged = True
            break
        candidate = solve_fixed_modes(st, new_pnc, target_rate, opts)
        if candidate.avg_energy > alloc.avg_energy:
            # strategy flips promised savings the re-solve could not realize;
            # keep the best allocation found
            converged = True
            break
        delta = abs(candidate.avg_energy - alloc.avg_energy)
        rel = delta / candidate.avg_energy if candidate.avg_energy > 0.0 else 0.0
        pnc, alloc = new_pnc, candidate
        trace.append(alloc.avg_energy)
        if rel < epsilon:
            converged = True
    return _report(alloc, trace, epsilon, converged)


def solve_baseline(states: Sequence[ChannelState], target_rate: float, mode: Mode,
                   opts: SolverOptions | None = None) -> Allocation:
    """Fixed-assignment solution with every state forced to one strategy."""
    return solve_fixed_modes(states, np.full(len(states), mode is Mode.PNC), target_rate, opts)
