"""Minimum-energy allocation for a fixed per-state strategy assignment.

Given fading states, a per-state uplink strategy, and a long-run average
exchange-rate target, this module finds the uplink/downlink time split,
per-state rates, and per-state powers that minimize the average energy
per channel use subject to

    f_u * mean(rate_u) >= target,   f_d * mean(rate_d) >= target,
    f_u + f_d <= 1.

Substituting the per-phase throughputs T = f * rate turns each phase's
energy into the perspective f * P(T/f) of a convex power curve, so the
fixed-split problem is convex and separable across states: every state's
rate is the stationary point of its power curve at a common multiplier,
clamped at zero, and the multiplier is found by safeguarded Newton steps
in its logarithm on the average rate (`_solve_multiplier`). The scalar time
split is the sign change of the reduced derivative, which the envelope
theorem gives exactly from the per-state terms; Illinois false position
finds it (`_search_split`).

One wrinkle is handled beyond the plain water-filling map: a silent state
consumes no power, but the PNC power curve does not vanish at zero rate
(the 1/2 SNR offset), so states whose stationary point sits barely above
the clamp can be cheaper to leave silent with their rate carried by the
others. All states carry equal weight and a PNC state at rate r costs
(2^r - 1/2) c, with c = 1/g1r + 1/g2r, so moving a silent state's rate onto
an active PNC state with a smaller c never costs more. The silent sets
worth trying are therefore the prefixes of the PNC states sorted by c,
largest first, and that order does not depend on the multiplier. The
silent prefix is chosen outside the split search, which is convex once the
prefix is fixed (`_optimize_split`).

Everything here is deterministic: fixed-order numpy reductions, fixed
iteration schedules, no RNG. All inputs are treated as immutable.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channel import ChannelState
from .ratepower import Mode

LN2 = math.log(2.0)
_MAX = sys.float_info.max

# Root of x ln(x) - x + 1/2 = 0. A PNC state whose stationary point
# x = beta1 / (ln2 (1/g1r + 1/g2r)) lies below this value costs more to
# keep active at the margin than to silence outright.
_SILENCE_X = 2.155535203500502


@dataclass(frozen=True)
class KktPoint:
    """Multipliers of the two average-rate constraints and the time budget."""

    beta1: float
    beta2: float
    gamma: float

    def __post_init__(self):
        for name in ("beta1", "beta2", "gamma"):
            v = getattr(self, name)
            if not (v >= 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be nonnegative and finite, got {v!r}")


@dataclass(frozen=True)
class TimeSplit:
    """Uplink and downlink fractions of the frame; slack is never kept."""

    f_u: float
    f_d: float

    def __post_init__(self):
        if not (self.f_u > 0.0 and self.f_d > 0.0):
            raise ValueError(f"time fractions must be positive, got {self.f_u!r}, {self.f_d!r}")
        if self.f_u + self.f_d > 1.0 + 1e-12:
            raise ValueError(f"time fractions exceed the frame: {self.f_u!r} + {self.f_d!r} > 1")


@dataclass(frozen=True)
class StateAllocation:
    """Strategy, rates (bits/use), and powers for one fading state."""

    mode: Mode
    rate_u: float
    rate_d: float
    power_u: float
    power_d: float

    def __post_init__(self):
        for name in ("rate_u", "rate_d", "power_u", "power_d"):
            v = getattr(self, name)
            if not (v >= 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be nonnegative and finite, got {v!r}")
        # a silent phase transmits nothing
        if (self.rate_u == 0.0) != (self.power_u == 0.0):
            raise ValueError("rate_u and power_u must vanish together")
        if (self.rate_d == 0.0) != (self.power_d == 0.0):
            raise ValueError("rate_d and power_d must vanish together")


@dataclass(frozen=True)
class Allocation:
    """Complete solution: split, per-state schedule, duals, and averages.

    avg_energy is the average energy per channel use,
    mean_n(f_u * power_u + f_d * power_d); avg_rate_u and avg_rate_d are
    the time-scaled average rates f * mean(rate).
    """

    split: TimeSplit
    per_state: tuple[StateAllocation, ...]
    duals: KktPoint
    avg_energy: float
    avg_rate_u: float
    avg_rate_d: float

    def __post_init__(self):
        object.__setattr__(self, "per_state", tuple(self.per_state))


@dataclass(frozen=True)
class KktResiduals:
    """Stationarity residuals of an allocation; see `kkt_residuals`."""

    uplink_rate: float
    downlink_rate: float
    uplink_time: float
    downlink_time: float
    gamma: float
    clamped_uplink: tuple[int, ...]
    clamped_downlink: tuple[int, ...]

    @property
    def worst(self) -> float:
        return max(self.uplink_rate, self.downlink_rate, self.uplink_time, self.downlink_time)


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances and switches of the allocation solver.

    rate_rtol: relative tolerance on the average rate of the multiplier
        solves; up to 3 Newton steps past it take the error to 1e-15.
    f_tol: split-search bracket width on the uplink fraction, below which
        one last false-position step ends the search.
    f_lo, f_hi: search interval for the uplink fraction.
    max_bisect_iter: step cap of one multiplier solve (exceeded means error).
    refine_uplink: search the silent prefixes of the PNC states (see module
        docstring); disable to get the plain water-filling map only.
    """

    rate_rtol: float = 1e-9
    f_tol: float = 1e-6
    f_lo: float = 1e-3
    f_hi: float = 1.0 - 1e-3
    max_bisect_iter: int = 200
    refine_uplink: bool = True

    def __post_init__(self):
        if not (self.rate_rtol > 0.0 and self.f_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if not (0.0 < self.f_lo < self.f_hi < 1.0):
            raise ValueError("need 0 < f_lo < f_hi < 1")
        if self.max_bisect_iter < 1:
            raise ValueError("max_bisect_iter must be at least 1")


def _check_multiplier(beta: float) -> None:
    if not (beta >= 0.0 and math.isfinite(beta)):
        raise ValueError(f"multiplier must be nonnegative and finite, got {beta!r}")


def pnc_rate_given_beta1(beta1: float, state: ChannelState) -> float:
    """Stationary PNC uplink rate at multiplier beta1, clamped at zero.

    Setting the slope of the PNC sum power equal to beta1 gives
    2^rate = beta1 / (ln2 * (1/g1r + 1/g2r)).
    """
    _check_multiplier(beta1)
    if beta1 == 0.0:
        return 0.0
    x = beta1 / (LN2 * (1.0 / state.g1r + 1.0 / state.g2r))
    return max(0.0, math.log2(x))


def dnc_rate_given_beta1(beta1: float, state: ChannelState) -> float:
    """Stationary SPC-DNC uplink rate at multiplier beta1, clamped at zero.

    The slope condition is quadratic in x = 2^rate:

        (2 ln2 / g_Mr) x^2 + ln2 (1/g_mr - 1/g_Mr) x = beta1

    and the rate is log2 of its positive root. The root is evaluated in
    the cancellation-free form 2 beta1 / (b + sqrt(b^2 + 4 a beta1)).
    """
    _check_multiplier(beta1)
    if beta1 == 0.0:
        return 0.0
    a = 2.0 * LN2 / state.g_Mr
    b = LN2 * (1.0 / state.g_mr - 1.0 / state.g_Mr)
    x = 2.0 * beta1 / (b + math.sqrt(b * b + 4.0 * a * beta1))
    return max(0.0, math.log2(x))


def downlink_rate_given_beta2(beta2: float, state: ChannelState) -> float:
    """Stationary broadcast rate at multiplier beta2: max(0, log2(beta2 g_rm / ln2))."""
    _check_multiplier(beta2)
    if beta2 == 0.0:
        return 0.0
    return max(0.0, math.log2(beta2 * state.g_rm / LN2))


class _Arrays:
    """Per-state gain quantities in vector form, fixed for one solve."""

    __slots__ = ("n", "g_mr", "g_Mr", "g_rm", "inv_sum", "is_pnc", "qa", "qb",
                 "qa4", "inv_ln2_sum", "any_pnc", "all_pnc")

    def __init__(self, states: Sequence[ChannelState], modes: Sequence[Mode] | None):
        g1 = np.array([s.g1r for s in states], dtype=float)
        g2 = np.array([s.g2r for s in states], dtype=float)
        gr1 = np.array([s.gr1 for s in states], dtype=float)
        gr2 = np.array([s.gr2 for s in states], dtype=float)
        self.n = len(states)
        self.g_mr = np.minimum(g1, g2)
        self.g_Mr = np.maximum(g1, g2)
        self.g_rm = np.minimum(gr1, gr2)
        self.inv_sum = 1.0 / g1 + 1.0 / g2
        self.inv_ln2_sum = 1.0 / (LN2 * self.inv_sum)
        if modes is None:
            self.is_pnc = np.zeros(self.n, dtype=bool)
        else:
            self.is_pnc = np.array([m is Mode.PNC for m in modes], dtype=bool)
        self.any_pnc = bool(self.is_pnc.any())
        self.all_pnc = bool(self.is_pnc.all())
        # SPC-DNC slope condition coefficients in x = 2^rate
        self.qa = 2.0 * LN2 / self.g_Mr
        self.qb = LN2 * (1.0 / self.g_mr - 1.0 / self.g_Mr)
        self.qa4 = 4.0 * self.qa


def _uplink_x(arr: _Arrays, beta1):
    """Unclamped stationary points x = 2^rate; beta1 scalar or column vector."""
    # The SPC-DNC root of qa x^2 + qb x = beta1, as 2s / (t + sqrt(t^2 + 4 qa))
    # with s = sqrt(beta1), t = qb / s, neither cancels nor overflows before x.
    if np.ndim(beta1) == 0:
        # scalar fast path: this sits inside every multiplier step
        b = float(beta1)
        if b <= 0.0:
            return np.zeros(arr.n)
        if arr.all_pnc:
            return b * arr.inv_ln2_sum
        s = math.sqrt(b)
        t = arr.qb / s
        x = (2.0 * s) / (t + np.sqrt(t * t + arr.qa4))
        if arr.any_pnc:
            x = np.where(arr.is_pnc, b * arr.inv_ln2_sum, x)
        return x
    with np.errstate(invalid="ignore", divide="ignore"):
        x_pnc = beta1 / (LN2 * arr.inv_sum)
        s = np.sqrt(beta1)
        t = arr.qb / s
        x_dnc = np.where(beta1 > 0.0, 2.0 * s / (t + np.sqrt(t * t + arr.qa4)), 0.0)
    return np.where(arr.is_pnc, x_pnc, x_dnc)


def _uplink_rates(arr: _Arrays, beta1, allowed=None):
    x = _uplink_x(arr, beta1)
    r = np.log2(np.maximum(x, 1.0))
    if allowed is not None:
        r = np.where(allowed, r, 0.0)
    return r


def _uplink_rate_slope(arr: _Arrays, beta1: float, allowed=None):
    """Mean uplink rate over the allowed states and its derivative in ln(beta1).

    Per active state the derivative is 1/ln2 for PNC and, for SPC-DNC with
    qa x^2 + qb x = beta1, (qa x + qb) / ((2 qa x + qb) ln2).
    """
    x = np.maximum(_uplink_x(arr, beta1), 1.0)
    r = np.log2(x)
    if allowed is not None:
        r *= allowed
    active = r > 0.0
    if arr.all_pnc:
        slope = np.count_nonzero(active) / LN2
    else:
        qx = arr.qa * x
        d = (qx + arr.qb) / ((2.0 * qx + arr.qb) * LN2)
        if arr.any_pnc:
            d[arr.is_pnc] = 1.0 / LN2
        slope = float(d.sum(where=active))
    return float(r.sum()) / arr.n, slope / arr.n


def _downlink_rate_slope(arr: _Arrays, beta2: float):
    """Mean downlink rate and its derivative in ln(beta2), 1/ln2 per active state."""
    r = arr.g_rm * (beta2 / LN2)
    np.maximum(r, 1.0, out=r)
    np.log2(r, out=r)
    return float(r.sum()) / arr.n, np.count_nonzero(r) / (arr.n * LN2)


def _uplink_powers(arr: _Arrays, rates):
    x = np.exp2(rates)
    p_pnc = (x - 0.5) * arr.inv_sum
    p_dnc = (x - 1.0) / arr.g_mr + x * (x - 1.0) / arr.g_Mr
    p = np.where(arr.is_pnc, p_pnc, p_dnc)
    return np.where(rates > 0.0, p, 0.0)


def _uplink_power_slope(arr: _Arrays, rates):
    x = np.exp2(rates)
    s_pnc = LN2 * x * arr.inv_sum
    s_dnc = LN2 * x / arr.g_mr + LN2 * (2.0 * x * x - x) / arr.g_Mr
    return np.where(arr.is_pnc, s_pnc, s_dnc)


def _downlink_rates(arr: _Arrays, beta2):
    x = beta2 * arr.g_rm / LN2
    return np.log2(np.maximum(x, 1.0))


def _downlink_powers(arr: _Arrays, rates):
    return np.where(rates > 0.0, (np.exp2(rates) - 1.0) / arr.g_rm, 0.0)


def _downlink_power_slope(arr: _Arrays, rates):
    return LN2 * np.exp2(rates) / arr.g_rm


def _solve_multiplier(rate_slope: Callable[[float], tuple[float, float]], target: float,
                      opts: SolverOptions, hint: float | None = None) -> float:
    """Solve mean_rate(beta) = target for beta >= 0 by Newton steps in u = ln beta.

    rate_slope(beta) gives the mean rate and its slope in u. The rate is
    nondecreasing in u, and for PNC and downlink states linear in u between
    the points where a state leaves its clamp, where a step is exact. Steps
    start at the hint (a neighbouring solve's multiplier) or at 1; one that
    leaves the bracket of points below and above the target becomes a
    factor 4 while that side is open, else the geometric midpoint. The
    search stops at a rate error of 1e-15 relative, or 3 steps after it is
    within opts.rate_rtol, or where a step no longer moves beta. Raises
    RuntimeError when beta would overflow float64 or after
    opts.max_bisect_iter steps.
    """
    if target <= 0.0:
        return 0.0
    beta = hint if hint is not None and 0.0 < hint < math.inf else 1.0
    lo, hi = 0.0, math.inf
    polish = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(opts.max_bisect_iter):
            rate, slope = rate_slope(beta)
            err = rate - target
            close = abs(err) <= opts.rate_rtol * target
            polish += close
            if polish > 3 or abs(err) <= 1e-15 * target:
                return beta
            if err < 0.0:
                lo = beta
            else:
                hi = beta
            step = -err / slope if slope > 0.0 else math.copysign(math.inf, -err)
            nxt = beta * math.exp(min(step, 709.0))
            if not lo < nxt < hi:
                if close:
                    return beta  # no Newton step left inside the bracket
                if 0.0 < lo and hi < math.inf:
                    nxt = math.sqrt(lo) * math.sqrt(hi)
                else:
                    nxt = min(4.0 * beta if err < 0.0 else 0.25 * beta, _MAX)
                if not lo < nxt < hi:
                    # adjacent floats or the float64 limit: the rate jumps
                    # across the target, as where 2^rate overflows to inf
                    raise RuntimeError("rate target unreachable in float64")
            beta = nxt
    raise RuntimeError("multiplier search did not reach tolerance within the iteration cap")


def _solve_uplink(arr: _Arrays, target: float, opts: SolverOptions, allowed, hint):
    """Uplink multiplier, rates, and powers meeting the average-rate target.

    States outside `allowed` (None means every state) stay silent; the rest
    follow the clamped stationary map. Raises RuntimeError when the
    multiplier or a power overflows float64.
    """
    beta = _solve_multiplier(lambda b: _uplink_rate_slope(arr, b, allowed), target, opts, hint)
    rates = _uplink_rates(arr, beta, allowed)
    return beta, rates, _finite_powers(_uplink_powers, arr, rates)


def _solve_downlink(arr: _Arrays, target: float, opts: SolverOptions, hint):
    """Downlink counterpart of `_solve_uplink`, with every state allowed."""
    beta = _solve_multiplier(lambda b: _downlink_rate_slope(arr, b), target, opts, hint)
    rates = _downlink_rates(arr, beta)
    return beta, rates, _finite_powers(_downlink_powers, arr, rates)


def _finite_powers(powers, arr: _Arrays, rates):
    """powers(arr, rates), raising RuntimeError where one overflows float64."""
    with np.errstate(over="ignore", invalid="ignore"):
        p = powers(arr, rates)
    if not np.isfinite(p).all():
        raise RuntimeError("transmit power overflows float64")
    return p


_SplitEval = namedtuple(
    "_SplitEval",
    "f_u energy beta1 beta2 rates_u rates_d powers_u powers_d mean_dup mean_ddn",
)


def _evaluate_split(arr: _Arrays, lam: float, f_u: float, opts: SolverOptions,
                    allowed, warm: dict):
    """Solve both phases at a fixed split: (envelope derivative, evaluation).

    The derivative of the reduced objective in f_u is mean_dup - mean_ddn.
    A phase that overflows gives no evaluation and an infinite derivative
    pointing away from it: an uplink overflow means f_u is too small (every
    smaller f_u overflows too), a downlink overflow means it is too large.
    """
    f_d = 1.0 - f_u
    try:
        beta1, r_u, p_u = _solve_uplink(arr, lam / f_u, opts, allowed, warm.get("b1"))
    except RuntimeError:
        return -math.inf, None
    try:
        beta2, r_d, p_d = _solve_downlink(arr, lam / f_d, opts, warm.get("b2"))
    except RuntimeError:
        return math.inf, None
    warm["b1"], warm["b2"] = beta1, beta2
    # d(f * P(T/f))/df = P(rate) - rate * P'(rate); silent states pin it at 0
    dup = np.where(r_u > 0.0, p_u - r_u * _uplink_power_slope(arr, r_u), 0.0)
    ddn = np.where(r_d > 0.0, p_d - r_d * _downlink_power_slope(arr, r_d), 0.0)
    ev = _SplitEval(
        f_u=f_u,
        energy=float(np.mean(f_u * p_u + f_d * p_d)),
        beta1=beta1,
        beta2=beta2,
        rates_u=r_u,
        rates_d=r_d,
        powers_u=p_u,
        powers_d=p_d,
        mean_dup=float(np.mean(dup)),
        mean_ddn=float(np.mean(ddn)),
    )
    return ev.mean_dup - ev.mean_ddn, ev


def _search_split(arr: _Arrays, lam: float, opts: SolverOptions, allowed,
                  warm: dict) -> _SplitEval | None:
    """Stationary split for a fixed silent set, by Illinois false position.

    With the silent set fixed the reduced objective is convex in f_u, so
    its minimizer is the sign change of the envelope derivative d. The
    bracket starts as [f_lo, f_hi] with d taken as -inf and +inf at its
    ends, so a boundary minimum is approached to within f_tol. A search
    after the first probes the last one's split, warm["f_u"], then steps
    towards the sign change by 1e-2, 4e-2, ... from it until d changes sign
    or the step leaves the bracket. While an end is infinite (never probed,
    or its phase overflowed) the step bisects; otherwise it is a
    false-position step, and an end kept twice in a row has its d halved
    (Illinois). The search stops as soon as |d| < 1e-11, or after one last
    step inside a bracket narrower than opts.f_tol: both ends of such a
    bracket can still carry a |d| too large for the KKT check, while a
    false-position step inside it lands on the sign change. Returns the
    feasible evaluation with the smallest |d|, or None when no split is
    feasible.
    """
    lo, hi = opts.f_lo, opts.f_hi
    d_lo, d_hi = -math.inf, math.inf
    best, best_d = None, math.inf
    moved = 0  # which end the last step replaced: -1 lo, +1 hi
    start = f = warm.get("f_u")
    width = 1e-2
    last = False
    while not last:
        last = hi - lo < opts.f_tol
        if f is None:
            f = 0.5 * (lo + hi)
            if math.isfinite(d_lo) and math.isfinite(d_hi):
                secant = (lo * d_hi - hi * d_lo) / (d_hi - d_lo)
                if lo < secant < hi:
                    f = secant
        d, ev = _evaluate_split(arr, lam, f, opts, allowed, warm)
        if ev is not None and abs(d) < best_d:
            best, best_d = ev, abs(d)
        if abs(d) < 1e-11:
            break
        if d < 0.0:
            lo, d_lo = f, d
            if moved == -1:
                d_hi *= 0.5
            moved = -1
        else:
            hi, d_hi = f, d
            if moved == 1:
                d_lo *= 0.5
            moved = 1
        f = None
        if start is not None and not (math.isfinite(d_lo) and math.isfinite(d_hi)):
            f = start - math.copysign(width, d)
            width *= 4.0
            if not lo < f < hi:
                start = f = None
    if best is not None:
        warm["f_u"] = best.f_u
    return best


def _optimize_split(arr: _Arrays, lam: float, opts: SolverOptions) -> _SplitEval:
    """Cheapest split over the silent prefixes of the PNC states.

    Prefix k silences the k PNC states with the largest inverse-gain sum
    (module docstring). Each prefix gets its own split search, cached by k.
    Starting from the plain map (k = 0), k is set to the number of PNC
    states whose stationary point lies below x* at the current beta1 until
    a k repeats. Then, from the best prefix and while the energy falls, k
    grows to silence the next PNC state that is still active, and after
    that shrinks by one. Raises ValueError when no split is feasible.
    """
    warm: dict = {}
    pnc = np.flatnonzero(arr.is_pnc)
    order = pnc[np.argsort(arr.inv_ln2_sum[pnc], kind="stable")]
    found: dict[int, _SplitEval | None] = {}

    def energy(k: int) -> float:
        if k not in found:
            allowed = np.ones(arr.n, dtype=bool)
            allowed[order[:k]] = False
            found[k] = (_search_split(arr, lam, opts, allowed if k else None, warm)
                        if allowed.any() else None)
        return math.inf if found[k] is None else found[k].energy

    if energy(0) == math.inf:
        raise ValueError(
            f"no feasible time split in [{opts.f_lo}, {opts.f_hi}] for target {lam}")
    if opts.refine_uplink and order.size:
        x_unit = arr.inv_ln2_sum[order]  # stationary x per unit of beta1
        # jump near the best prefix first: at n = 1000 the walk alone would
        # step through the prefixes one split search at a time
        k = 0
        while True:
            k = int(np.count_nonzero(found[k].beta1 * x_unit < _SILENCE_X))
            if k in found or energy(k) == math.inf:
                break
        k = min(found, key=energy)
        while True:
            # silence the next PNC state that is still active; the ones
            # between k and it are already held at zero by the clamp
            j = int(np.count_nonzero(found[k].rates_u[order] == 0.0)) + 1
            if j > order.size or energy(j) >= energy(k):
                break
            k = j
        k = min(found, key=energy)
        while k > 0 and energy(k - 1) < energy(k):
            k -= 1
    return found[min(found, key=energy)]


def _check_problem(states, modes, target_rate) -> None:
    if len(states) == 0:
        raise ValueError("need at least one channel state")
    if modes is not None and len(modes) != len(states):
        raise ValueError(f"got {len(states)} states but {len(modes)} modes")
    if not (target_rate >= 0.0 and math.isfinite(target_rate)):
        raise ValueError(f"target rate must be nonnegative and finite, got {target_rate!r}")


def solve_beta1(states: Sequence[ChannelState], modes: Sequence[Mode],
                target_avg_rate: float, opts: SolverOptions | None = None) -> float:
    """Uplink multiplier whose clamped stationary rates average to the target.

    Safeguarded Newton steps in ln(beta1) on the (continuous,
    nondecreasing) average-rate map, to opts.rate_rtol and then to a
    relative error of 1e-15 (`_solve_multiplier`). Target 0 returns 0;
    RuntimeError means the multiplier overflows float64.
    """
    opts = opts or SolverOptions()
    _check_problem(states, modes, target_avg_rate)
    if target_avg_rate == 0.0:
        return 0.0
    arr = _Arrays(states, modes)
    return _solve_multiplier(lambda b: _uplink_rate_slope(arr, b), target_avg_rate, opts)


def solve_beta2(states: Sequence[ChannelState], target_avg_rate: float,
                opts: SolverOptions | None = None) -> float:
    """Downlink counterpart of solve_beta1 (strategy-independent)."""
    opts = opts or SolverOptions()
    _check_problem(states, None, target_avg_rate)
    if target_avg_rate == 0.0:
        return 0.0
    arr = _Arrays(states, None)
    return _solve_multiplier(lambda b: _downlink_rate_slope(arr, b), target_avg_rate, opts)


def solve_fixed_modes(states: Sequence[ChannelState], modes: Sequence[Mode],
                      target_rate: float, opts: SolverOptions | None = None) -> Allocation:
    """Minimum-energy allocation for the given per-state strategy assignment.

    A zero target is served by the all-silent allocation with the frame
    split evenly by convention. Otherwise the two phases are solved by
    Newton steps on their multipliers for each candidate split, and the
    split by false position on the reduced derivative over
    [opts.f_lo, opts.f_hi] with f_d = 1 - f_u, once per silent PNC prefix
    tried, each search after the first starting from the split of the one
    before; giving any slack to the downlink never
    costs energy, so the frame is always used fully. Raises ValueError when
    no split in that interval can carry the target.
    """
    opts = opts or SolverOptions()
    _check_problem(states, modes, target_rate)
    modes = list(modes)
    if target_rate == 0.0:
        per = tuple(StateAllocation(m, 0.0, 0.0, 0.0, 0.0) for m in modes)
        return Allocation(TimeSplit(0.5, 0.5), per, KktPoint(0.0, 0.0, 0.0), 0.0, 0.0, 0.0)
    arr = _Arrays(states, modes)
    ev = _optimize_split(arr, target_rate, opts)
    f_u = ev.f_u
    f_d = 1.0 - f_u
    p_u, p_d = ev.powers_u, ev.powers_d
    per = tuple(
        StateAllocation(modes[i], float(ev.rates_u[i]), float(ev.rates_d[i]),
                        float(p_u[i]), float(p_d[i]))
        for i in range(arr.n))
    return Allocation(
        split=TimeSplit(f_u, f_d),
        per_state=per,
        duals=KktPoint(ev.beta1, ev.beta2, max(0.0, -ev.mean_ddn)),
        avg_energy=ev.energy,
        avg_rate_u=f_u * float(np.mean(ev.rates_u)),
        avg_rate_d=f_d * float(np.mean(ev.rates_d)),
    )


def kkt_residuals(alloc: Allocation, states: Sequence[ChannelState],
                  modes: Sequence[Mode] | None = None) -> KktResiduals:
    """Stationarity residuals of an allocation against its own multipliers.

    Per active state the rate conditions |P'(rate) - beta| are reported as
    maxima; clamped states are listed instead of checked (complementary
    slackness covers them). The time-budget multiplier gamma is recovered
    from the downlink split condition, so its residual vanishes by
    construction and the uplink split condition carries the information:
    it equals |d(avg energy)/d f_u| at the reported split.
    """
    if modes is None:
        modes = [sa.mode for sa in alloc.per_state]
    _check_problem(states, modes, 0.0)
    if len(alloc.per_state) != len(states):
        raise ValueError(f"allocation covers {len(alloc.per_state)} states, got {len(states)}")
    arr = _Arrays(states, modes)
    r_u = np.array([sa.rate_u for sa in alloc.per_state], dtype=float)
    r_d = np.array([sa.rate_d for sa in alloc.per_state], dtype=float)
    active_u = r_u > 0.0
    active_d = r_d > 0.0
    slope_u = _uplink_power_slope(arr, r_u)
    slope_d = _downlink_power_slope(arr, r_d)
    up_rate = float(np.max(np.abs(slope_u - alloc.duals.beta1), where=active_u, initial=0.0))
    dn_rate = float(np.max(np.abs(slope_d - alloc.duals.beta2), where=active_d, initial=0.0))
    p_u = _uplink_powers(arr, r_u)
    p_d = _downlink_powers(arr, r_d)
    dup = np.where(active_u, p_u - r_u * slope_u, 0.0)
    ddn = np.where(active_d, p_d - r_d * slope_d, 0.0)
    mean_dup = float(np.mean(dup))
    mean_ddn = float(np.mean(ddn))
    gamma = -mean_ddn
    return KktResiduals(
        uplink_rate=up_rate,
        downlink_rate=dn_rate,
        uplink_time=abs(mean_dup + gamma),
        downlink_time=abs(mean_ddn + gamma),
        gamma=gamma,
        clamped_uplink=tuple(int(i) for i in np.flatnonzero(~active_u)),
        clamped_downlink=tuple(int(i) for i in np.flatnonzero(~active_d)),
    )


def scan_split_energies(states: Sequence[ChannelState], modes: Sequence[Mode],
                        target_rate: float, f_values,
                        opts: SolverOptions | None = None) -> np.ndarray:
    """Reduced-objective energies on a grid of uplink fractions, vectorized.

    Dense scans of the split objective for diagnostics. Uses the plain
    water-filling map (no PNC state forced silent), which is the objective
    solve_fixed_modes minimizes with refine_uplink=False. That map jumps
    where a PNC state leaves its clamp, so the scan can show several local
    minima.
    """
    opts = opts or SolverOptions()
    _check_problem(states, modes, target_rate)
    arr = _Arrays(states, modes)
    f = np.asarray(f_values, dtype=float)
    if np.any((f <= 0.0) | (f >= 1.0)):
        raise ValueError("grid fractions must lie strictly inside (0, 1)")
    if target_rate == 0.0:
        return np.zeros_like(f)

    def solve_vec(targets, rate_fn):
        m = targets.shape[0]
        hi = np.ones(m)
        for _ in range(400):
            mean = rate_fn(hi[:, None]).mean(axis=1)
            need = mean < targets
            if not need.any():
                break
            hi = np.where(need, hi * 4.0, hi)
        else:
            raise RuntimeError("multiplier bracket expansion failed in scan")
        lo = np.zeros(m)
        for _ in range(160):
            mid = 0.5 * (lo + hi)
            mean = rate_fn(mid[:, None]).mean(axis=1)
            under = mean < targets
            lo = np.where(under, mid, lo)
            hi = np.where(under, hi, mid)
        return 0.5 * (lo + hi)

    b1 = solve_vec(target_rate / f, lambda bb: _uplink_rates(arr, bb))
    b2 = solve_vec(target_rate / (1.0 - f), lambda bb: _downlink_rates(arr, bb))
    r_u = _uplink_rates(arr, b1[:, None])
    r_d = _downlink_rates(arr, b2[:, None])
    p_u = _uplink_powers(arr, r_u).mean(axis=1)
    p_d = _downlink_powers(arr, r_d).mean(axis=1)
    return f * p_u + (1.0 - f) * p_d


def perspective_energy(state: ChannelState, mode: Mode):
    """Scaled-phase uplink energy (T, f) -> f * P(T/f) on the smooth branch.

    Jointly convex on T >= 0, f > 0 as the perspective of a convex power
    curve. The zero-rate shortcut (silent means free) is deliberately not
    applied here; convexity probes exercise the smooth expression itself.
    """
    if mode is Mode.PNC:
        s = 1.0 / state.g1r + 1.0 / state.g2r
        return lambda t, f: f * (2.0 ** (t / f) - 0.5) * s
    g_mr, g_Mr = state.g_mr, state.g_Mr

    def theta(t, f):
        x = 2.0 ** (t / f)
        return f * ((x - 1.0) / g_mr + x * (x - 1.0) / g_Mr)

    return theta


def perspective_downlink_energy(state: ChannelState):
    """Scaled-phase broadcast energy (T, f) -> f * (2^(T/f) - 1)/g_rm."""
    g = state.g_rm
    return lambda t, f: f * (2.0 ** (t / f) - 1.0) / g
