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
in its logarithm on the average rate (`_solve_multiplier`), the one solver
of split probes, silent prefixes and scan points, each warm-started at the
Newton step from the last solve on its phase. The scalar time split is the
sign change of the reduced derivative, which the envelope theorem gives
exactly from the per-state terms, and so is its slope (`_evaluate_split`);
bracketed Newton steps find it (`_search_split`).

Both phases run through one water-filling core. With x = 2^rate every
state's power is a (x - o) + b x (x - 1), with the coefficients from
`ratepower`: linear for the broadcast and PNC, quadratic for SPC-DNC. A
`_Phase` holds them per state, and `_rates`, `_rate_slope` and `_powers`
give the stationary rates, the mean rate with its slope in ln(beta), and
the powers with their slopes and envelope terms, for either phase.

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
from typing import Sequence

import numpy as np

from .channel import ChannelState
from .ratepower import Mode, broadcast_curve, curve_power, dnc_curve, pnc_curve

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
        solves; up to 3 Newton steps past it take the error to 1e-15. Below
        1, so that a probe with every state silent never counts as close.
    f_tol: split-search bracket width on the uplink fraction, below which
        one last Newton step ends the search.
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
        if not (0.0 < self.rate_rtol < 1.0 and self.f_tol > 0.0):
            raise ValueError("need 0 < rate_rtol < 1 and f_tol > 0")
        if not (0.0 < self.f_lo < self.f_hi < 1.0):
            raise ValueError("need 0 < f_lo < f_hi < 1")
        if self.max_bisect_iter < 1:
            raise ValueError("max_bisect_iter must be at least 1")


def pnc_rate_given_beta1(beta1: float, state: ChannelState) -> float:
    """Stationary PNC uplink rate at multiplier beta1, clamped at zero.

    Setting the slope of the PNC sum power equal to beta1 gives
    2^rate = beta1 / (ln2 * (1/g1r + 1/g2r)).
    """
    return _single_rate(_uplink([state], [Mode.PNC]), beta1)


def dnc_rate_given_beta1(beta1: float, state: ChannelState) -> float:
    """Stationary SPC-DNC uplink rate at multiplier beta1, clamped at zero.

    The slope condition is quadratic in x = 2^rate:

        (2 ln2 / g_Mr) x^2 + ln2 (1/g_mr - 1/g_Mr) x = beta1

    and the rate is log2 of its positive root (see `_stationary_x`).
    """
    return _single_rate(_uplink([state], [Mode.SPCDNC]), beta1)


def downlink_rate_given_beta2(beta2: float, state: ChannelState) -> float:
    """Stationary broadcast rate at multiplier beta2: max(0, log2(beta2 g_rm / ln2))."""
    return _single_rate(_downlink([state]), beta2)


def _single_rate(phase: _Phase, beta: float) -> float:
    if not (beta >= 0.0 and math.isfinite(beta)):
        raise ValueError(f"multiplier must be nonnegative and finite, got {beta!r}")
    if beta == 0.0:
        return 0.0
    with np.errstate(over="ignore"):
        return float(_rates(phase, beta)[0])


class _Phase:
    """One phase's per-state power curves P = a (x - o) + b x (x - 1), x = 2^rate.

    At multiplier beta a state's stationary point solves P'(rate) = beta,
    that is qa x^2 + qb x = beta with qa = 2 ln2 b and qb = ln2 (a - b);
    linear curves (b = 0: the broadcast and PNC) give x = beta / qb.
    """

    __slots__ = ("n", "a", "o", "b", "qa", "qa4", "qb", "inv_qb", "linear",
                 "all_linear", "any_linear")

    def __init__(self, a, o, b):
        self.a, self.o, self.b = np.broadcast_arrays(a, o, b)
        self.n = self.a.size
        self.qa = 2.0 * LN2 * self.b
        self.qa4 = 4.0 * self.qa
        self.qb = LN2 * (self.a - self.b)
        self.linear = self.b == 0.0
        self.all_linear = bool(self.linear.all())
        self.any_linear = bool(self.linear.any())
        # stationary x per unit of beta on the linear curves
        self.inv_qb = np.divide(1.0, self.qb, out=np.zeros(self.n), where=self.linear)


def _uplink(states: Sequence[ChannelState], modes: Sequence[Mode]) -> _Phase:
    """Uplink curves: PNC where `modes` says so, SPC-DNC elsewhere."""
    g1 = np.array([s.g1r for s in states], dtype=float)
    g2 = np.array([s.g2r for s in states], dtype=float)
    pnc = np.array([m is Mode.PNC for m in modes], dtype=bool)
    dnc = dnc_curve(np.minimum(g1, g2), np.maximum(g1, g2))
    return _Phase(*(np.where(pnc, p, d) for p, d in zip(pnc_curve(g1, g2), dnc)))


def _downlink(states: Sequence[ChannelState]) -> _Phase:
    return _Phase(*broadcast_curve(np.array([s.g_rm for s in states], dtype=float)))


def _stationary_x(ph: _Phase, beta):
    """Unclamped stationary points x = 2^rate at beta > 0, scalar or column vector."""
    if ph.all_linear:
        return beta * ph.inv_qb
    # the root of qa x^2 + qb x = beta as 2s / (t + sqrt(t^2 + 4 qa)) with
    # s = sqrt(beta), t = qb / s neither cancels nor overflows before x
    s = np.sqrt(beta)
    t = ph.qb / s
    x = 2.0 * s / (t + np.sqrt(t * t + ph.qa4))
    if ph.any_linear:
        # with qa = 0 that root comes out as 2 beta / qb once t^2 underflows
        x = np.where(ph.linear, beta * ph.inv_qb, x)
    return x


def _rates(ph: _Phase, beta, allowed=None):
    """Clamped stationary rates; states outside `allowed` (None: every state) stay silent."""
    r = np.log2(np.maximum(_stationary_x(ph, beta), 1.0))
    return r if allowed is None else np.where(allowed, r, 0.0)


def _rate_slope(ph: _Phase, beta: float, allowed=None):
    """Mean rate over the allowed states and its derivative in ln(beta).

    Per active state the derivative is (qa x + qb) / ((2 qa x + qb) ln2),
    which is 1/ln2 on a linear curve.
    """
    x = np.maximum(_stationary_x(ph, beta), 1.0)
    r = np.log2(x)
    if allowed is not None:
        r *= allowed
    if ph.all_linear:
        slope = int(np.count_nonzero(r)) / LN2  # a float, so d' overflows to inf quietly
    else:
        qx = ph.qa * x
        slope = float(((qx + ph.qb) / ((2.0 * qx + ph.qb) * LN2)).sum(where=r > 0.0))
    return float(r.sum()) / ph.n, slope / ph.n


def _powers(ph: _Phase, rates):
    """Powers, their slopes P'(rate), and the mean envelope term over the last axis.

    The envelope term P - rate P' is d(f P(T/f))/df at fixed throughput
    T = f rate. Silent states use no power and add no envelope term.
    Raises RuntimeError where a power or the mean overflows float64.
    """
    active = rates > 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.exp2(rates)
        p = np.where(active, curve_power(x, ph.a, ph.o, ph.b), 0.0)
        slope = LN2 * x * (ph.a + ph.b * (2.0 * x - 1.0))
        env = np.where(active, p - rates * slope, 0.0).mean(axis=-1)
    if not (np.isfinite(p).all() and np.isfinite(env).all()):
        raise RuntimeError("transmit power overflows float64")
    return p, slope, env


def _solve_multiplier(ph: _Phase, target: float, opts: SolverOptions, allowed=None,
                      warm: tuple[float, float, float] | None = None) -> tuple[float, float]:
    """Solve mean_rate(beta) = target for beta >= 0 by Newton steps in u = ln beta.

    `_rate_slope` gives the mean rate and its slope in u. The rate is
    nondecreasing in u, and for PNC and downlink states linear in u between
    the points where a state leaves its clamp, where a step is exact. Steps
    start at 1, or at the step beta0 exp((target - target0) / slope0) from a
    neighbouring solve's `warm` = (target0, beta0, slope0); one that leaves
    the bracket of points below and above the target becomes a
    factor 4 while that side is open, else the geometric midpoint. The
    search stops at a rate error of 1e-15 relative, or 3 steps after it is
    within opts.rate_rtol, or where a step no longer moves beta. Returns
    beta and the slope at beta (0 for target 0). Raises RuntimeError when
    beta would overflow float64 or after opts.max_bisect_iter steps.
    """
    if target <= 0.0:
        return 0.0, 0.0
    t0, b0, s0 = warm or (target, 1.0, 1.0)
    beta = min(b0 * math.exp(min((target - t0) / s0, 709.0)), _MAX) or b0  # b0 on underflow
    lo, hi = 0.0, math.inf
    polish = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(opts.max_bisect_iter):
            rate, slope = _rate_slope(ph, beta, allowed)
            err = rate - target
            close = abs(err) <= opts.rate_rtol * target
            polish += close
            if polish > 3 or abs(err) <= 1e-15 * target:
                return beta, slope
            if err < 0.0:
                lo = beta
            else:
                hi = beta
            step = -err / slope if slope > 0.0 else math.copysign(math.inf, -err)
            nxt = beta * math.exp(min(step, 709.0))
            if not lo < nxt < hi:
                if close:
                    return beta, slope  # no Newton step left inside the bracket
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


def _solve_phase(ph: _Phase, target: float, opts: SolverOptions, allowed, warm):
    """Multiplier, its rate slope, rates, powers and mean envelope term at the rate target.

    States outside `allowed` (None means every state) stay silent; the rest
    follow the clamped stationary map. Raises RuntimeError when the
    multiplier or a power overflows float64.
    """
    beta, slope = _solve_multiplier(ph, target, opts, allowed, warm)
    rates = _rates(ph, beta, allowed)
    p, _, env = _powers(ph, rates)
    return beta, slope, rates, p, float(env)


_SplitEval = namedtuple(
    "_SplitEval",
    "f_u energy beta1 beta2 rates_u rates_d powers_u powers_d mean_dup mean_ddn",
)


def _evaluate_split(up: _Phase, dn: _Phase, lam: float, f_u: float, opts: SolverOptions,
                    allowed, warm: dict):
    """Solve both phases at a fixed split: (derivative d, Newton step d / d', evaluation).

    d = mean_dup - mean_ddn is the derivative of the reduced objective in
    f_u. Each phase costs the perspective f U(lam / f) of its least mean
    power U, so d' = lam^2 (kappa1 / f_u^3 + kappa2 / f_d^3) with kappa =
    U'' = beta / slope; d' can overflow float64 where d does not, so both are
    scaled by the larger beta's power of two before dividing. Each phase's
    (target, beta, slope) goes into `warm` for the next solve. A phase that
    overflows gives no evaluation, a NaN step and an infinite d pointing
    away from it: an uplink overflow means f_u is too small (every smaller
    f_u overflows too), a downlink overflow means it is too large.
    """
    f_d = 1.0 - f_u
    t1, t2 = lam / f_u, lam / f_d
    try:
        beta1, s1, r_u, p_u, dup = _solve_phase(up, t1, opts, allowed, warm.get("up"))
    except RuntimeError:
        return -math.inf, math.nan, None
    try:
        beta2, s2, r_d, p_d, ddn = _solve_phase(dn, t2, opts, None, warm.get("dn"))
    except RuntimeError:
        return math.inf, math.nan, None
    warm["up"], warm["dn"] = (t1, beta1, s1), (t2, beta2, s2)
    ev = _SplitEval(
        f_u=f_u,
        energy=float(np.mean(f_u * p_u + f_d * p_d)),
        beta1=beta1,
        beta2=beta2,
        rates_u=r_u,
        rates_d=r_d,
        powers_u=p_u,
        powers_d=p_d,
        mean_dup=dup,
        mean_ddn=ddn,
    )
    e = math.frexp(max(beta1, beta2))[1]
    slope = lam * lam * (math.ldexp(beta1, -e) / s1 / f_u ** 3
                         + math.ldexp(beta2, -e) / s2 / f_d ** 3)
    return dup - ddn, math.ldexp(dup - ddn, -e) / slope, ev


def _search_split(up: _Phase, dn: _Phase, lam: float, opts: SolverOptions, allowed,
                  warm: dict) -> _SplitEval | None:
    """Stationary split for a fixed silent set, by bracketed Newton steps.

    With the silent set fixed the reduced objective is convex in f_u; its
    minimizer is the sign change of d, whose Newton step `_evaluate_split`
    gives. Steps start at the last search's split, warm["f_u"], or
    mid-interval, and each probe moves one end of the bracket [f_lo, f_hi]
    to it by the sign of d. A step past an end of [f_lo, f_hi] not yet
    probed probes that end, where d pointing outward ends the search. A
    step that otherwise leaves the bracket, is NaN (an infeasible probe), or
    comes while |d| has not halved over two probes (a jump in d can cycle
    the steps) bisects. The search stops at |d| < 1e-11 (|mean_dup| +
    |mean_ddn|), which scales with the gains, at a step below 1e-15 f, or
    after one last step inside a bracket narrower than opts.f_tol, whose
    ends can still carry a |d| too large for the KKT check. Returns the
    feasible evaluation with the smallest |d|, or None when none is.
    """
    lo, hi = opts.f_lo, opts.f_hi
    unprobed = {lo, hi}
    best, best_d = None, math.inf
    f = warm.get("f_u", 0.5 * (lo + hi))
    d_before = d_last = math.inf  # |d| two probes back and one probe back
    last = False
    while not last:
        last = hi - lo < opts.f_tol
        d, step, ev = _evaluate_split(up, dn, lam, f, opts, allowed, warm)
        unprobed.discard(f)
        if ev is not None:
            if abs(d) < best_d:
                best, best_d = ev, abs(d)
            if abs(d) < 1e-11 * (abs(ev.mean_dup) + abs(ev.mean_ddn)):
                break
        if d < 0.0:
            lo = f
        else:
            hi = f
        if lo == hi or abs(step) <= 1e-15 * f:
            break
        f = min(max(f - step, lo), hi)  # NaN stays NaN; an unprobed end gets probed
        if f not in unprobed and not (lo < f < hi and abs(d) <= 0.5 * d_before):
            f = 0.5 * (lo + hi)
        d_before, d_last = d_last, abs(d)
    if best is not None:
        warm["f_u"] = best.f_u
    return best


def _optimize_split(up: _Phase, dn: _Phase, lam: float, opts: SolverOptions) -> _SplitEval:
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
    pnc = np.flatnonzero(up.o < 1.0)  # the only curves with a cost at rate 0
    order = pnc[np.argsort(up.inv_qb[pnc], kind="stable")]
    found: dict[int, _SplitEval | None] = {}

    def energy(k: int) -> float:
        if k not in found:
            allowed = np.ones(up.n, dtype=bool)
            allowed[order[:k]] = False
            found[k] = (_search_split(up, dn, lam, opts, allowed if k else None, warm)
                        if allowed.any() else None)
        return math.inf if found[k] is None else found[k].energy

    if energy(0) == math.inf:
        raise ValueError(
            f"no feasible time split in [{opts.f_lo}, {opts.f_hi}] for target {lam}")
    if opts.refine_uplink and order.size:
        x_unit = up.inv_qb[order]  # stationary x per unit of beta1
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
    _check_problem(states, modes, target_avg_rate)
    return _solve_multiplier(_uplink(states, modes), target_avg_rate, opts or SolverOptions())[0]


def solve_beta2(states: Sequence[ChannelState], target_avg_rate: float,
                opts: SolverOptions | None = None) -> float:
    """Downlink counterpart of solve_beta1 (strategy-independent)."""
    _check_problem(states, None, target_avg_rate)
    return _solve_multiplier(_downlink(states), target_avg_rate, opts or SolverOptions())[0]


def solve_fixed_modes(states: Sequence[ChannelState], modes: Sequence[Mode],
                      target_rate: float, opts: SolverOptions | None = None) -> Allocation:
    """Minimum-energy allocation for the given per-state strategy assignment.

    A zero target is served by the all-silent allocation with the frame
    split evenly by convention. Otherwise the two phases are solved by
    Newton steps on their multipliers for each candidate split, and the
    split by bracketed Newton steps on the reduced derivative over
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
    ev = _optimize_split(_uplink(states, modes), _downlink(states), target_rate, opts)
    f_u = ev.f_u
    f_d = 1.0 - f_u
    p_u, p_d = ev.powers_u, ev.powers_d
    per = tuple(
        StateAllocation(modes[i], float(ev.rates_u[i]), float(ev.rates_d[i]),
                        float(p_u[i]), float(p_d[i]))
        for i in range(len(modes)))
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
    rows = []
    for ph, rates, beta in (
            (_uplink(states, modes), [sa.rate_u for sa in alloc.per_state], alloc.duals.beta1),
            (_downlink(states), [sa.rate_d for sa in alloc.per_state], alloc.duals.beta2)):
        rates = np.array(rates, dtype=float)
        active = rates > 0.0
        _, slope, env = _powers(ph, rates)
        rows.append((float(np.max(np.abs(slope - beta), where=active, initial=0.0)),
                     float(env), tuple(int(i) for i in np.flatnonzero(~active))))
    (up_rate, mean_dup, clamped_u), (dn_rate, mean_ddn, clamped_d) = rows
    gamma = -mean_ddn
    return KktResiduals(
        uplink_rate=up_rate,
        downlink_rate=dn_rate,
        uplink_time=abs(mean_dup + gamma),
        downlink_time=abs(mean_ddn + gamma),
        gamma=gamma,
        clamped_uplink=clamped_u,
        clamped_downlink=clamped_d,
    )


def scan_split_energies(states: Sequence[ChannelState], modes: Sequence[Mode],
                        target_rate: float, f_values,
                        opts: SolverOptions | None = None) -> np.ndarray:
    """Reduced-objective energies on a grid of uplink fractions.

    Dense scans of the split objective for diagnostics. Uses the plain
    water-filling map (no PNC state forced silent), which is the objective
    solve_fixed_modes minimizes with refine_uplink=False. That map jumps
    where a PNC state leaves its clamp, so the scan can show several local
    minima. Each point's multipliers are solved under `opts`, warm-started
    from the point before, and the powers evaluated for all points at once.
    Raises RuntimeError where a phase overflows or a solve runs out of steps.
    """
    _check_problem(states, modes, target_rate)
    opts = opts or SolverOptions()
    f = np.asarray(f_values, dtype=float)
    if np.any((f <= 0.0) | (f >= 1.0)):
        raise ValueError("grid fractions must lie strictly inside (0, 1)")
    if target_rate == 0.0:
        return np.zeros_like(f)
    energy = 0.0
    for ph, g in ((_uplink(states, modes), f), (_downlink(states), 1.0 - f)):
        betas, warm = [], None
        for target in (target_rate / g).tolist():
            warm = (target, *_solve_multiplier(ph, target, opts, None, warm))
            betas.append(warm[1])
        rates = _rates(ph, np.array(betas)[:, None])
        energy = energy + g * _powers(ph, rates)[0].mean(axis=1)
    return energy


def perspective_energy(state: ChannelState, mode: Mode):
    """Scaled-phase uplink energy (T, f) -> f * P(T/f) on the smooth branch.

    Jointly convex on T >= 0, f > 0 as the perspective of a convex power
    curve. The zero-rate shortcut (silent means free) is deliberately not
    applied here; convexity probes exercise the smooth expression itself.
    """
    if mode is Mode.PNC:
        return _perspective(pnc_curve(state.g1r, state.g2r))
    return _perspective(dnc_curve(state.g_mr, state.g_Mr))


def perspective_downlink_energy(state: ChannelState):
    """Scaled-phase broadcast energy (T, f) -> f * (2^(T/f) - 1)/g_rm."""
    return _perspective(broadcast_curve(state.g_rm))


def _perspective(curve):
    return lambda t, f: f * curve_power(2.0 ** (t / f), *curve)
