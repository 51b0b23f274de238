"""Fixed-assignment solver: dual rate maps, feasibility, KKT residuals,
and the split search against a dense scan."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from twrelay import (
    Allocation,
    ChannelState,
    KktPoint,
    Mode,
    SolverOptions,
    StateAllocation,
    States,
    TimeSplit,
    dnc_rate_given_beta1,
    dnc_uplink_sum_power,
    downlink_power,
    downlink_rate_given_beta2,
    kkt_residuals,
    pnc_rate_given_beta1,
    pnc_uplink_sum_power,
    sample_states,
    scan_split_energies,
    solve_baseline,
    solve_beta1,
    solve_beta2,
    solve_fixed_modes,
)
from twrelay import allocation
from twrelay.allocation import (_downlink, _evaluate_split, _mean_power, _powers, _rate_sums,
                                _rates, _search_split, _stationary_x, _uplink)
from twrelay.cli import ExperimentConfig, run_sweep

LN2 = math.log(2.0)
UNIT = ChannelState(1.0, 1.0, 1.0, 1.0)


def rand_instance(rng, n, p_pnc=0.5):
    states = []
    for _ in range(n):
        g1, g2 = rng.exponential(1.0, size=2)
        states.append(ChannelState(float(g1), float(g2), float(g1), float(g2)))
    modes = [Mode.PNC if rng.random() < p_pnc else Mode.SPCDNC for _ in range(n)]
    return states, modes


# ---------------------------------------------------------------- rate maps

def test_pnc_rate_map_values():
    assert abs(pnc_rate_given_beta1(8.0 * LN2, UNIT) - 2.0) <= 1e-12
    assert pnc_rate_given_beta1(2.0 * LN2, UNIT) == 0.0  # exact clamp boundary
    assert pnc_rate_given_beta1(LN2, UNIT) == 0.0


def test_dnc_rate_map_values():
    # unit gains: the linear term vanishes, x = sqrt(beta1 / (2 ln2))
    assert abs(dnc_rate_given_beta1(8.0 * LN2, UNIT) - 1.0) <= 1e-12
    assert dnc_rate_given_beta1(LN2, UNIT) == 0.0
    # gains (1, 2): quadratic ln2 x^2 + (ln2/2) x - beta1 = 0, so x = 2
    # needs beta1 = 4 ln2 + ln2 = 5 ln2
    s = ChannelState(1.0, 2.0, 1.0, 2.0)
    assert abs(dnc_rate_given_beta1(5.0 * LN2, s) - 1.0) <= 1e-12


def test_downlink_rate_map_values():
    assert abs(downlink_rate_given_beta2(2.0 * LN2, UNIT) - 1.0) <= 1e-12
    assert downlink_rate_given_beta2(LN2, UNIT) == 0.0
    s = ChannelState(1.0, 1.0, 4.0, 9.0)  # g_rm = 4
    assert abs(downlink_rate_given_beta2(LN2 / 2.0, s) - 1.0) <= 1e-12


def test_rate_maps_are_nondecreasing_in_beta():
    rng = np.random.default_rng(3)
    betas = np.linspace(0.0, 40.0, 400)
    for _ in range(10):
        g1, g2 = rng.exponential(1.0, size=2)
        s = ChannelState(float(g1), float(g2), float(g1), float(g2))
        for fn in (pnc_rate_given_beta1, dnc_rate_given_beta1, downlink_rate_given_beta2):
            vals = [fn(float(b), s) for b in betas]
            assert all(b >= a for a, b in zip(vals, vals[1:]))


# ------------------------------------------------------------- dual solves

def test_solve_beta1_inverts_the_rate_maps():
    b1 = solve_beta1([UNIT], [Mode.PNC], 2.0)
    assert abs(b1 - 8.0 * LN2) <= 1e-8 * 8.0 * LN2
    # identical states behave like a single one
    b1 = solve_beta1([UNIT, UNIT], [Mode.SPCDNC, Mode.SPCDNC], 1.0)
    assert abs(b1 - 8.0 * LN2) <= 1e-8 * 8.0 * LN2
    assert solve_beta1([UNIT], [Mode.PNC], 0.0) == 0.0


def test_solve_beta2_inverts_the_downlink_map():
    assert abs(solve_beta2([UNIT], 1.0) - 2.0 * LN2) <= 1e-8
    # g_rm 1 and 4 give rates 1 and 3 at beta2 = 2 ln2, mean 2
    two = [UNIT, ChannelState(1.0, 1.0, 4.0, 5.0)]
    assert abs(solve_beta2(two, 2.0) - 2.0 * LN2) <= 1e-8
    assert solve_beta2(two, 0.0) == 0.0


def test_solved_rates_meet_the_target_on_average():
    rng = np.random.default_rng(40)
    states, modes = rand_instance(rng, 30)
    for target in (0.3, 1.1, 2.7):
        b1 = solve_beta1(states, modes, target)
        rates = [
            pnc_rate_given_beta1(b1, s) if m is Mode.PNC else dnc_rate_given_beta1(b1, s)
            for s, m in zip(states, modes)
        ]
        assert abs(np.mean(rates) - target) <= 1e-9 * target


def test_solve_beta1_is_increasing_in_target():
    rng = np.random.default_rng(41)
    states, modes = rand_instance(rng, 12)
    betas = [solve_beta1(states, modes, t) for t in (0.2, 0.5, 1.0, 2.0)]
    assert all(b > a for a, b in zip(betas, betas[1:]))


def test_multipliers_far_beyond_2_pow_600_are_found():
    states = sample_states(50, 7)
    b2 = solve_beta2(states, 700.0)  # about 1.48e211
    assert 2.0 ** 600 < b2 < math.inf
    rates = [downlink_rate_given_beta2(b2, s) for s in states]
    assert abs(np.mean(rates) - 700.0) <= 1e-12 * 700.0
    b1 = solve_beta1(states, [Mode.SPCDNC] * 50, 300.0)  # about 5.27e180
    assert 2.0 ** 600 < b1 < math.inf
    rates = [dnc_rate_given_beta1(b1, s) for s in states]
    assert abs(np.mean(rates) - 300.0) <= 1e-12 * 300.0
    # every split probe of this solve needs such a multiplier
    alloc = solve_fixed_modes(states, [Mode.PNC] * 50, 200.0)
    assert alloc.avg_energy <= 1.2153e121


def test_multiplier_overflow_is_a_runtime_error_without_warnings():
    states = sample_states(50, 7)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RuntimeError):
            solve_beta1(states, [Mode.SPCDNC] * 50, 599.0)  # beta near 2^1198
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_a_split_whose_envelope_sum_overflows_is_infeasible():
    # a probe's envelope term is a mean, but the per-state map that builds
    # the probe returned sums it over the states first; at lambda = 505
    # that sum overflows at every split, which must end the search as "no
    # feasible split", not raise the overflow after it
    with pytest.raises(ValueError, match="no feasible time split"):
        solve_fixed_modes(sample_states(1000, 3), [Mode.PNC] * 1000, 505.0)


def test_mixed_linear_and_quadratic_curves_at_a_huge_multiplier():
    # beta near 1e295: for the PNC state t = qb / sqrt(beta) squares to a
    # subnormal, where the quadratic root loses digits (and doubles once
    # t^2 underflows), so the linear curves must keep x = beta / qb
    states = [ChannelState(1e12, 1e12, 1e12, 1e12)] * 2
    b1 = solve_beta1(states, [Mode.PNC, Mode.SPCDNC], 764.0)
    assert 1e284 < b1 < math.inf
    rates = [pnc_rate_given_beta1(b1, states[0]), dnc_rate_given_beta1(b1, states[1])]
    assert abs(np.mean(rates) - 764.0) <= 1e-12 * 764.0


def mean_and_slope(ph, rates, beta):
    # the per-state reference of `_rate_sums`: the mean of rates of the
    # per-state map at beta and its derivative in ln(beta), which is
    # (qa x + qb) / ((2 qa x + qb) ln2) per active state, qa = 2 ln2 b
    if ph.all_linear:
        slope = np.count_nonzero(rates) / LN2
    else:
        qx = 2.0 * LN2 * ph.b * np.maximum(_stationary_x(ph, beta), 1.0)
        slope = float(((qx + ph.qb) / ((2.0 * qx + ph.qb) * LN2)).sum(where=rates > 0.0))
    return float(rates.sum()) / ph.n, slope / ph.n


def test_a_silenced_phase_is_the_masked_rate_map():
    # holding PNC states silent by zeroing their x per unit of beta must be
    # the plain map with those rates set to 0, bit for bit, at any beta
    rng = np.random.default_rng(19)
    for trial in range(200):
        n = int(rng.integers(1, 51))
        states, modes = rand_instance(rng, n)
        full = _uplink(states, modes)
        pnc = np.flatnonzero([m is Mode.PNC for m in modes])
        idx = pnc[rng.random(pnc.size) < 0.5]
        silent = np.zeros(n, dtype=bool)
        silent[idx] = True
        quiet = full.silenced(idx)
        for beta in np.exp(rng.uniform(math.log(1e-300), 999.0 * LN2, size=8)).tolist():
            masked = np.where(silent, 0.0, _rates(full, beta))
            got = _rates(quiet, beta)
            assert got.tobytes() == masked.tobytes(), (trial, beta)
            assert mean_and_slope(quiet, got, beta) == mean_and_slope(full, masked, beta)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 1000, 10_000])
def test_table_sums_equal_the_per_state_map(n):
    # a split probe takes its mean rate, slope, mean power and envelope
    # term from the table (`_rate_sums`, `_mean_power`): they must be the
    # per-state map's, and its active count the per-state count of linear
    # states at a positive rate, on every kind of phase, with ties in qb,
    # silent prefixes, beta at a breakpoint and beyond the last one
    rng = np.random.default_rng(n)
    st = sample_states(n, n)
    pick = np.where(rng.random(n) < 0.5, np.arange(n), rng.integers(0, n, n))  # repeats
    st = States(st.g1r[pick], st.g2r[pick], st.gr1[pick], st.gr2[pick])
    masks = {"pnc": np.ones(n, bool), "spc-dnc": np.zeros(n, bool), "mixed": rng.random(n) < 0.5}
    phases = [("downlink", _downlink(st))]
    for label, pnc in masks.items():
        up = _uplink(st, pnc)
        order = up.table[::-1]
        for k in sorted({0, 1, order.size // 3, order.size - 1, order.size}
                        & set(range(order.size + 1))):
            phases.append((f"{label}, {k} silent", up.silenced(order[:k])))
    for label, ph in phases:
        # every state's breakpoint, the beta where it leaves the clamp (qa = 0
        # on a linear curve)
        kinks = ph.qb + 2.0 * LN2 * ph.b
        lo, hi = kinks.min(), kinks.max()
        betas = [lo, np.nextafter(lo, np.inf), *rng.choice(kinks, min(n, 5), replace=False),
                 4.0 * hi, *np.exp(rng.uniform(np.log(lo), np.log(hi) + 2.0, 5))]
        for beta in map(float, betas):
            rate, slope, m, x = _rate_sums(ph, beta)
            power = _mean_power(ph, beta, m, x)
            rates = _rates(ph, beta)
            want_rate, want_slope = mean_and_slope(ph, rates, beta)
            p, _, want_env = _powers(ph, rates)
            assert m == np.count_nonzero(rates[ph.linear] > 0.0), (label, beta)
            # just past a breakpoint a power a (x - o) + b x (x - 1) is at the
            # rounding level of the terms that cancel in it, in the per-state
            # map as well, so it is compared on their scale
            xs = np.exp2(rates)
            gross = float(np.sum(ph.a * xs + ph.b * xs * xs, where=rates > 0.0)) / n
            for name, got, want, floor in (("rate", rate, want_rate, 0.0),
                                           ("slope", slope, want_slope, 0.0),
                                           ("power", power, p.mean(), gross),
                                           ("envelope", power - beta * rate, want_env, gross)):
                assert abs(got - want) <= 1e-12 * max(abs(want), floor), (label, beta, name)


# ----------------------------------------------------------- power curves

def test_public_powers_and_slopes_are_the_cores():
    rng = np.random.default_rng(91)
    n = 200
    states = [ChannelState(*(float(g) for g in 10.0 ** rng.uniform(-3.0, 3.0, 4)))
              for _ in range(n)]
    modes = [Mode.PNC if rng.random() < 0.5 else Mode.SPCDNC for _ in range(n)]
    rates = rng.uniform(1.0, 8.0, n)
    up = np.array([(pnc_uplink_sum_power if m is Mode.PNC else dnc_uplink_sum_power)(float(r), s)
                   for r, s, m in zip(rates, states, modes)])
    dn = np.array([downlink_power(float(r), s) for r, s in zip(rates, states)])
    # the public functions take x = 2.0 ** rate, the core np.exp2(rate); the
    # same x gives the same power to the bit, and from rate 1 up a last-bit
    # difference in x moves the power by a few ulps at most
    same_x = np.array([2.0 ** float(r) for r in rates]) == np.exp2(rates)
    assert same_x.mean() > 0.5
    h = 1e-5
    for phase, public in ((_uplink(states, modes), up), (_downlink(states), dn)):
        p, slope, _ = _powers(phase, rates)
        assert np.array_equal(p[same_x], public[same_x])
        assert np.all(np.abs(p - public) <= 8.0 * np.spacing(public))
        central = (_powers(phase, rates + h)[0] - _powers(phase, rates - h)[0]) / (2.0 * h)
        assert np.all(np.abs(central - slope) <= 1e-6 * slope)


# ------------------------------------------------------------- full solves

def test_zero_target_allocation_is_silent():
    rng = np.random.default_rng(50)
    states, modes = rand_instance(rng, 6)
    alloc = solve_fixed_modes(states, modes, 0.0)
    assert alloc.avg_energy == 0.0
    assert alloc.split.f_u == 0.5
    assert all(sa.rate_u == 0.0 and sa.power_u == 0.0 for sa in alloc.per_state)
    assert all(sa.rate_d == 0.0 and sa.power_d == 0.0 for sa in alloc.per_state)


def test_single_state_dnc_matches_closed_form():
    # unit gains, target 1/2: uplink power 4^R - 1, downlink 2^R - 1; the
    # optimum sits at f_u = 2/3 where both exponents equal 3/2, giving
    # total energy 2 sqrt2 - 1
    alloc = solve_fixed_modes([UNIT], [Mode.SPCDNC], 0.5)
    exact = 2.0 * math.sqrt(2.0) - 1.0
    assert abs(alloc.avg_energy - exact) <= 5e-8 * exact
    assert abs(alloc.split.f_u - 2.0 / 3.0) <= 1e-4


def test_single_state_pnc_regression_value():
    alloc = solve_fixed_modes([UNIT], [Mode.PNC], 0.5)
    assert abs(alloc.avg_energy - 1.9710941291371364) <= 1e-6 * 1.971


def test_feasibility_and_bookkeeping():
    rng = np.random.default_rng(60)
    states, modes = rand_instance(rng, 30)
    for lam in (0.3, 1.3):
        alloc = solve_fixed_modes(states, modes, lam)
        assert abs(alloc.avg_rate_u - lam) <= 1e-6 * lam
        assert abs(alloc.avg_rate_d - lam) <= 1e-6 * lam
        f_u, f_d = alloc.split.f_u, alloc.split.f_d
        assert abs(f_u + f_d - 1.0) <= 1e-12
        recomputed = np.mean([f_u * sa.power_u + f_d * sa.power_d for sa in alloc.per_state])
        assert abs(recomputed - alloc.avg_energy) <= 1e-12 * max(1.0, alloc.avg_energy)
        assert alloc.duals.beta1 > 0.0 and alloc.duals.beta2 > 0.0


def test_powers_are_linked_to_rates():
    rng = np.random.default_rng(61)
    states, modes = rand_instance(rng, 25)
    alloc = solve_fixed_modes(states, modes, 0.4)
    clamped = 0
    for sa, s, m in zip(alloc.per_state, states, modes):
        if sa.rate_u == 0.0:
            assert sa.power_u == 0.0
            clamped += 1
        else:
            want = (pnc_uplink_sum_power if m is Mode.PNC else dnc_uplink_sum_power)(sa.rate_u, s)
            assert abs(sa.power_u - want) <= 1e-12 * want
        if sa.rate_d == 0.0:
            assert sa.power_d == 0.0
        else:
            want = downlink_power(sa.rate_d, s)
            assert abs(sa.power_d - want) <= 1e-12 * want
    assert clamped > 0  # the low target should shut some weak states off


@pytest.mark.parametrize("mode", [Mode.PNC, Mode.SPCDNC])
def test_energy_scales_inversely_with_the_gains(mode):
    # with every gain equal to g the optimum is the unit-gain one over g, so
    # the split search must not stop on an absolute threshold
    ref = solve_fixed_modes([UNIT], [mode], 1.0).avg_energy
    for g in (1e-12, 1e10, 1e12):
        energy = solve_fixed_modes([ChannelState(g, g, g, g)], [mode], 1.0).avg_energy
        assert abs(energy * g - ref) <= 1e-9 * ref, g


def test_silent_pnc_states_beat_plain_water_filling():
    # two states where the cheaper schedule shuts the bad PNC state off
    # entirely; the plain clamped map keeps it at a small positive rate
    # and pays about 19% more
    states = sample_states(2, 1102)
    modes = [Mode.PNC, Mode.SPCDNC]
    refined = solve_fixed_modes(states, modes, 0.5)
    plain = solve_fixed_modes(states, modes, 0.5, SolverOptions(refine_uplink=False))
    assert refined.avg_energy <= plain.avg_energy * (1.0 - 0.15)
    assert refined.per_state[0].rate_u == 0.0
    assert refined.per_state[0].power_u == 0.0
    assert abs(refined.avg_rate_u - 0.5) <= 1e-6 * 0.5


def test_refinement_never_hurts():
    rng = np.random.default_rng(62)
    for _ in range(10):
        states, modes = rand_instance(rng, 5)
        lam = float(rng.uniform(0.2, 2.0))
        refined = solve_fixed_modes(states, modes, lam)
        plain = solve_fixed_modes(states, modes, lam, SolverOptions(refine_uplink=False))
        assert refined.avg_energy <= plain.avg_energy * (1.0 + 1e-9)


# energies of an exhaustive search over every silent PNC subset, for
# n = 5-8: (seed, n, target, modes, energy)
SUBSET_SEARCH_ENERGIES = [
    (2101, 5, 0.1, "pnc", 0.2597200968430474),
    (2102, 6, 0.5, "mixed", 4.891339209717259),
    (2103, 7, 2.0, "pnc", 51.47441696563972),
    (2104, 8, 0.1, "mixed", 0.15366400227312513),
    (2105, 5, 0.5, "pnc", 3.914641728372471),
    (2106, 6, 2.0, "mixed", 111.34535301218585),
    (2107, 7, 0.1, "pnc", 0.5788375714207161),
    (2108, 8, 0.5, "mixed", 2.3559292805683896),
    (2109, 5, 2.0, "pnc", 55.09093362440732),
    (2110, 6, 0.1, "mixed", 0.26409969194600014),
]


@pytest.mark.parametrize("seed,n,lam,label,pinned", SUBSET_SEARCH_ENERGIES)
def test_prefix_search_matches_the_subset_search(seed, n, lam, label, pinned):
    if label == "pnc":
        modes = [Mode.PNC] * n
    else:
        modes = [Mode.PNC if i % 2 == 0 else Mode.SPCDNC for i in range(n)]
    alloc = solve_fixed_modes(sample_states(n, seed), modes, lam)
    assert alloc.avg_energy <= pinned * (1.0 + 1e-9)


# energies on sample_states(n, 5) before the split probe took its sums from
# the sorted table: (n, modes, target, energy); "mixed" is PNC on every
# third state
SMALL_TARGET_ENERGIES = [
    (1000, "pnc", 1e-09, 2.686019858549471e-07),
    (1000, "pnc", 1e-06, 1.0184260849957972e-06),
    (1000, "pnc", 0.001, 0.001049088773613867),
    (1000, "pnc", 1.0, 10.313529914105942),
    (1000, "pnc", 4.0, 1112.9153628687786),
    (1000, "spc-dnc", 1e-09, 5.858533618197051e-10),
    (1000, "spc-dnc", 1e-06, 5.863152843510508e-07),
    (1000, "spc-dnc", 0.001, 0.0007083660322953544),
    (1000, "spc-dnc", 1.0, 14.203602915656997),
    (1000, "spc-dnc", 4.0, 6754.580490360241),
    (1000, "mixed", 1e-09, 5.858533618436016e-10),
    (1000, "mixed", 1e-06, 5.864309845630291e-07),
    (1000, "mixed", 0.001, 0.0007306792133061812),
    (1000, "mixed", 1.0, 12.307655395308212),
    (1000, "mixed", 4.0, 2832.273772600265),
    (100_000, "pnc", 1e-09, 1.868750984716035e-09),
    (100_000, "pnc", 1e-06, 5.769802477894629e-07),
    (100_000, "pnc", 0.001, 0.00095275533780189),
    (100_000, "pnc", 1.0, 9.893109272508147),
    (100_000, "pnc", 4.0, 1051.2324811267158),
    (100_000, "spc-dnc", 1e-09, 3.268071561149933e-10),
    (100_000, "spc-dnc", 1e-06, 3.496020444466744e-07),
    (100_000, "spc-dnc", 0.001, 0.0007144565056493448),
    (100_000, "spc-dnc", 1.0, 13.55048868396554),
    (100_000, "spc-dnc", 4.0, 6481.995882086699),
    (100_000, "mixed", 1e-09, 3.268071561149944e-10),
    (100_000, "mixed", 1e-06, 3.5291129515144445e-07),
    (100_000, "mixed", 0.001, 0.0007407654822142367),
    (100_000, "mixed", 1.0, 11.759419752338806),
    (100_000, "mixed", 4.0, 2687.758204181106),
]


@pytest.mark.parametrize("n,label,lam,pinned", SMALL_TARGET_ENERGIES)
def test_small_targets_deliver_their_rate(n, label, lam, pinned):
    # m log2(beta inv0) - log_sum[m] cancels at tiny rates; the per-state
    # rates of the returned probe must still carry the target, and the
    # energy stay where the per-state probes had it
    pnc = {"pnc": np.ones(n, bool), "spc-dnc": np.zeros(n, bool),
           "mixed": np.arange(n) % 3 == 0}[label]
    alloc = solve_fixed_modes(sample_states(n, 5), pnc, lam)
    per, floor = alloc.per_state, lam * (1.0 - SolverOptions().rate_rtol)
    assert alloc.split.f_u * float(np.mean(per.rate_u)) >= floor
    assert alloc.split.f_d * float(np.mean(per.rate_d)) >= floor
    assert abs(alloc.avg_energy - pinned) <= 1e-9 * pinned


# ---------------------------------------------------------- KKT residuals

def test_kkt_residuals_vanish_at_an_interior_optimum():
    alloc = solve_fixed_modes([UNIT], [Mode.PNC], 0.5)
    res = kkt_residuals(alloc, [UNIT])
    assert res.clamped_uplink == ()
    assert res.clamped_downlink == ()
    for r in (res.uplink_rate, res.downlink_rate, res.uplink_time, res.downlink_time):
        assert r <= 1e-6
    assert res.gamma > 0.0


def test_kkt_residuals_on_larger_instances(seed7_states):
    # all states active: the residual bound applies with no caveats
    active = sample_states(30, 60)
    alloc = solve_fixed_modes(active, [Mode.SPCDNC] * 30, 2.0)
    res = kkt_residuals(alloc, active)
    assert res.clamped_uplink == () and res.clamped_downlink == ()
    assert res.uplink_time <= 1e-6
    # the standard draw clamps a handful of deeply faded states and still
    # comes out clean
    alloc = solve_fixed_modes(seed7_states, [Mode.SPCDNC] * 1000, 2.0)
    res = kkt_residuals(alloc, seed7_states)
    assert res.uplink_rate <= 1e-6
    assert res.downlink_rate <= 1e-6
    assert res.uplink_time <= 1e-6


def _resolve_at_split(states, modes, lam, f_u):
    """Tight duals for a forced split; rate conditions hold, f is off."""
    f_d = 1.0 - f_u
    b1 = solve_beta1(states, modes, lam / f_u)
    b2 = solve_beta2(states, lam / f_d)
    per = []
    for s, m in zip(states, modes):
        if m is Mode.PNC:
            r_u = pnc_rate_given_beta1(b1, s)
            p_u = pnc_uplink_sum_power(r_u, s) if r_u > 0 else 0.0
        else:
            r_u = dnc_rate_given_beta1(b1, s)
            p_u = dnc_uplink_sum_power(r_u, s) if r_u > 0 else 0.0
        r_d = downlink_rate_given_beta2(b2, s)
        p_d = downlink_power(r_d, s) if r_d > 0 else 0.0
        per.append(StateAllocation(mode=m, rate_u=r_u, rate_d=r_d, power_u=p_u, power_d=p_d))
    energy = float(np.mean([f_u * sa.power_u + f_d * sa.power_d for sa in per]))
    return Allocation(
        split=TimeSplit(f_u, f_d),
        per_state=tuple(per),
        duals=KktPoint(beta1=b1, beta2=b2, gamma=0.0),
        avg_energy=energy,
        avg_rate_u=f_u * float(np.mean([sa.rate_u for sa in per])),
        avg_rate_d=f_d * float(np.mean([sa.rate_d for sa in per])),
    )


def test_perturbed_split_breaks_time_stationarity():
    states, modes = [UNIT], [Mode.PNC]
    base = solve_fixed_modes(states, modes, 0.5)
    shifted = _resolve_at_split(states, modes, 0.5, base.split.f_u + 0.05)
    res = kkt_residuals(shifted, states)
    assert res.uplink_rate <= 1e-6  # duals still tight
    assert res.uplink_time > 1e-3  # split stationarity is not


def test_zero_target_residuals_report_everything_clamped():
    rng = np.random.default_rng(70)
    states, modes = rand_instance(rng, 4)
    alloc = solve_fixed_modes(states, modes, 0.0)
    res = kkt_residuals(alloc, states)
    assert res.clamped_uplink == tuple(range(4))
    assert res.clamped_downlink == tuple(range(4))
    assert res.uplink_rate == 0.0 and res.downlink_rate == 0.0


# ------------------------------------------------------------ split search

def test_golden_section_matches_dense_scan():
    # the split search must land within one grid cell of a 10^4-point
    # scan argmin; the scan shares `_solve_multiplier` with the search, so
    # this checks the split search, and the closed-form test below checks
    # the multipliers both sides solve
    rng = np.random.default_rng(80)
    f_grid = np.linspace(0.02, 0.98, 10_000)
    spacing = f_grid[1] - f_grid[0]
    opts = SolverOptions(refine_uplink=False)  # the scan uses the plain map
    for trial in range(20):
        states, modes = rand_instance(rng, int(rng.integers(1, 4)))
        lam = float(rng.uniform(0.3, 2.5))
        alloc = solve_fixed_modes(states, modes, lam, opts)
        energies = scan_split_energies(states, modes, lam, f_grid, opts)
        k = int(np.argmin(energies))
        assert abs(alloc.split.f_u - f_grid[k]) <= spacing + 1e-6, (trial, lam)
        assert alloc.avg_energy <= energies[k] * (1.0 + 1e-6)


def test_scan_rejects_fractions_outside_the_open_interval():
    # NaN too: its multiplier solve would probe beta = NaN without end
    for grid in ([0.0, 0.5], [math.nan], [0.5, math.inf], [-math.inf]):
        with pytest.raises(ValueError, match="inside"):
            scan_split_energies(sample_states(2, 3), [Mode.PNC] * 2, 0.5, grid)


def test_scan_solves_its_multipliers_under_the_options():
    with pytest.raises(RuntimeError, match="iteration cap"):
        scan_split_energies([UNIT], [Mode.PNC], 0.5, [0.3, 0.5],
                            SolverOptions(max_bisect_iter=1))


def test_scan_matches_the_solver_at_its_split():
    rng = np.random.default_rng(33)
    opts = SolverOptions(refine_uplink=False)
    for trial in range(40):
        states, modes = rand_instance(rng, int(rng.integers(1, 51)))
        lam = float(rng.uniform(0.3, 2.5))
        alloc = solve_fixed_modes(states, modes, lam, opts)
        energy = scan_split_energies(states, modes, lam, [alloc.split.f_u], opts)[0]
        assert abs(energy - alloc.avg_energy) <= 1e-12 * alloc.avg_energy, (trial, lam)


def test_scan_matches_the_closed_form_energy_of_one_state():
    # with one state its rates are the target over each phase's share, so
    # the energy is the two perspectives, with no multiplier to solve
    rng = np.random.default_rng(41)
    f = np.linspace(0.05, 0.95, 19)
    for trial in range(40):
        states, modes = rand_instance(rng, 1)
        lam = float(rng.uniform(0.3, 2.5))
        energy = scan_split_energies(states, modes, lam, f)
        exact = (allocation.perspective_energy(states[0], modes[0])(lam, f)
                 + allocation.perspective_downlink_energy(states[0])(lam, 1.0 - f))
        assert np.all(np.abs(energy - exact) <= 1e-12 * exact), (trial, lam)


def test_split_slope_matches_a_central_difference():
    # d' = lam^2 (kappa1 / f_u^3 + kappa2 / f_d^3), with each phase's
    # kappa = beta / slope taken from its own multiplier solve, comes back
    # as the Newton step d / d'
    rng = np.random.default_rng(12)
    opts, h = SolverOptions(), 1e-5
    for trial in range(40):
        states, modes = rand_instance(rng, int(rng.integers(1, 51)))
        lam = float(rng.uniform(0.3, 2.5))
        f = float(rng.uniform(0.3, 0.7))
        up, dn = _uplink(states, modes), _downlink(states)
        d, step, _ = _evaluate_split(up, dn, lam, f, opts, {})
        slope = d / step
        d_plus = _evaluate_split(up, dn, lam, f + h, opts, {})[0]
        d_minus = _evaluate_split(up, dn, lam, f - h, opts, {})[0]
        central = (d_plus - d_minus) / (2.0 * h)
        assert abs(slope - central) <= 1e-6 * slope, (trial, slope, central)


def test_split_search_work_on_the_default_sweep(monkeypatch):
    # the Newton steps take a handful of evaluations per split search, and
    # each warm-started multiplier solve a sum pass or two; the per-state
    # map runs once per phase of each fixed-mode solve, for the probe it
    # returns (one `_optimize_split` each)
    counts = {"_search_split": 0, "_evaluate_split": 0, "_optimize_split": 0, "_rate_sums": 0,
              "_rates": 0, "_powers": 0, "_stationary_x": 0}

    def counted(name):
        inner = getattr(allocation, name)

        def wrapper(*args):
            counts[name] += 1
            return inner(*args)

        monkeypatch.setattr(allocation, name, wrapper)

    for name in counts:
        counted(name)
    phases, sorts = [], []
    init, argsort = allocation._Phase.__init__, np.argsort
    monkeypatch.setattr(allocation._Phase, "__init__",
                        lambda self, *args: phases.append(self) or init(self, *args))
    monkeypatch.setattr(np, "argsort", lambda *args, **kw: sorts.append(args) or argsort(*args, **kw))
    run_sweep(ExperimentConfig())
    assert counts["_search_split"] == 154
    assert counts["_evaluate_split"] <= 600
    assert counts["_rate_sums"] <= 2100
    assert counts["_rates"] == counts["_powers"] == 2 * counts["_optimize_split"] == 94
    assert counts["_stationary_x"] == counts["_rates"]
    # each fixed-mode solve builds its uplink phase, while the draw keeps
    # one downlink phase (the only linear curves with o = 1) and sorts
    # twice, for it and for the PNC order; a build per solve made 94
    # phases, 47 of them downlinks, and 94 sorts
    downlinks = [ph for ph in phases if ph.all_linear and (ph.o == 1.0).all()]
    assert len(phases) == counts["_optimize_split"] + 1 == 48
    assert len(downlinks) == 1
    assert len(sorts) == 2


def test_a_draw_that_served_a_sweep_solves_as_fresh_columns(monkeypatch):
    # a `States` keeps its downlink phase and PNC order: after a whole
    # default sweep on it every solve must equal, field for field, the same
    # call on fresh columns, and a slice or an index array, which must
    # start empty, the same on its own fresh copy
    st = sample_states(1000, 7)
    monkeypatch.setattr(ExperimentConfig, "resolve_states", lambda self: st)
    run_sweep(ExperimentConfig())
    assert set(st._derived) == {"downlink", "pnc_order"}
    rng = np.random.default_rng(24)
    mixed, idx = rng.random(1000) < 0.5, rng.permutation(1000)[:300]

    def solves(s, pnc):
        alloc = solve_fixed_modes(s, pnc, 1.0)
        return [solve_baseline(s, 1.0, Mode.PNC), solve_baseline(s, 1.0, Mode.SPCDNC), alloc,
                kkt_residuals(alloc, s),
                scan_split_energies(s, pnc, 1.0, np.linspace(0.2, 0.8, 7)).tolist()]

    for s, pnc in ((st, mixed), (st[:400], mixed[:400]), (st[idx], mixed[idx])):
        assert solves(s, pnc) == solves(States(s.g1r, s.g2r, s.gr1, s.gr2), pnc)


@pytest.mark.parametrize("n", [1, 2, 10, 1000])
def test_phase_tables_are_the_sort_of_their_linear_states(n):
    # every table picks its linear states out of an order built once per
    # draw; it must be their own stable sort, ties in qb (repeated states)
    # by descending index, and what the draw keeps must be read-only
    rng = np.random.default_rng(n + 24)
    st = sample_states(n, n)
    pick = np.where(rng.random(n) < 0.5, np.arange(n), rng.integers(0, n, n))  # repeats
    st = States(st.g1r[pick], st.g2r[pick], st.gr1[pick], st.gr2[pick])
    dn = _downlink(st)
    masks = (np.ones(n, bool), np.zeros(n, bool), rng.random(n) < 0.5)
    for ph in (dn, *(_uplink(st, pnc) for pnc in masks)):
        lin = np.flatnonzero(ph.linear)
        assert np.array_equal(ph.table, lin[np.argsort(ph.inv_qb[lin], kind="stable")[::-1]])
        if n == 1000 and lin.size:
            assert np.unique(ph.inv_qb[lin]).size < lin.size  # the ties are there
    assert _downlink(st) is dn
    # an all-linear phase's table is its order itself, not a copy of it
    assert np.shares_memory(_uplink(st, masks[0]).table, st._derived["pnc_order"])
    curve = allocation.broadcast_curve(st.g_rm)
    order = allocation._linear_order(curve[0])
    assert np.shares_memory(allocation._Phase(*curve, order).table, order)
    for v in (st._derived["pnc_order"], dn.a, dn.o, dn.b, dn.qb, dn.inv_qb, dn.linear,
              dn.table, dn.neg_inv, dn.log_sum, dn.ao_sum):
        with pytest.raises(ValueError, match="read-only"):
            v[0] = v[-1]


@pytest.mark.parametrize("seed", [5, 7, 11])
def test_prefix_walk_matches_every_prefix_at_n_1000(seed):
    # an optimal silent set is a prefix and each prefix's split problem is
    # convex, so the best split search over all 1,000 prefixes is the
    # PNC-only optimum, which the walk must reach with its few
    states = sample_states(1000, seed)
    up, dn = _uplink(states, np.ones(1000, bool)), _downlink(states)
    order = up.table[::-1]
    opts = SolverOptions()
    for lam in (0.05, 0.25, 1.0, 3.0):
        warm: dict = {}
        evs = [_search_split(up.silenced(order[:k]), dn, lam, opts, warm) for k in range(1000)]
        best = min(ev.energy for ev in evs if ev is not None)
        walk = solve_baseline(states, lam, Mode.PNC).avg_energy
        assert abs(walk - best) <= 1e-12 * best, (lam, walk, best)


@pytest.mark.parametrize("gains, end", [((1e4, 1e4, 1e-4, 1e-4), "f_lo"),
                                        ((1e-4, 1e-4, 1e4, 1e4), "f_hi")])
def test_split_search_returns_a_boundary_optimum_exactly(monkeypatch, gains, end):
    # d keeps one sign over the whole interval, so the optimum is the end
    # itself; bisecting toward it took 21 evaluations and stopped short
    calls = []
    inner = allocation._evaluate_split
    monkeypatch.setattr(allocation, "_evaluate_split", lambda *a: calls.append(a) or inner(*a))
    alloc = solve_fixed_modes([ChannelState(*gains)], [Mode.SPCDNC], 1e-3)
    assert alloc.split.f_u == getattr(SolverOptions(), end)
    assert len(calls) <= 5


@pytest.mark.parametrize("lam", [1e-7, 1e-6, 1e-5])
def test_split_search_returns_the_boundary_and_not_the_smallest_slope(seed7_states, lam):
    # at tiny targets d > 0 over the whole interval and the optimum is
    # f_lo; returning the probe with the smallest |d| instead (f_u = 0.5)
    # cost 14-410 times the energy a search confined near f_lo finds
    modes = [Mode.PNC] * len(seed7_states)
    alloc = solve_fixed_modes(seed7_states, modes, lam)
    near_lo = solve_fixed_modes(seed7_states, modes, lam, SolverOptions(f_hi=0.01))
    assert alloc.avg_energy <= near_lo.avg_energy * (1.0 + 1e-9)


def test_split_search_bisects_where_the_slope_overflows():
    # near the float64 limit d' overflows while d and the powers stay
    # finite; scaled by a common power of two, the Newton step still
    # reaches the optimum instead of stopping at its first probe f_u = 0.5,
    # whose energy is 6% above it
    lam = 505.0
    alloc = solve_fixed_modes([UNIT], [Mode.PNC], lam)
    margin = lam / 1022.0  # beyond it a phase's power overflows
    f = np.linspace(margin, 1.0 - margin, 200001)
    energy = (allocation.perspective_energy(UNIT, Mode.PNC)(lam, f)
              + allocation.perspective_downlink_energy(UNIT)(lam, 1.0 - f))
    best = int(np.argmin(energy))
    assert abs(alloc.split.f_u - f[best]) <= SolverOptions().f_tol
    assert alloc.avg_energy <= energy[best] * (1.0 + 1e-9)


# ------------------------------------------------------------------ errors

def test_mismatched_modes_rejected():
    with pytest.raises(ValueError, match="modes"):
        solve_fixed_modes([UNIT], [Mode.PNC, Mode.PNC], 0.5)


def test_mode_arrays_are_read_as_modes_and_only_bools_as_a_mask():
    # an object array of modes is the same assignment as the list, and a
    # boolean array is the PNC mask itself
    states = sample_states(6, 3)
    modes = [Mode.SPCDNC, Mode.PNC] * 3
    want = solve_fixed_modes(states, modes, 1.0)
    for same in (np.array(modes), np.array([m is Mode.PNC for m in modes])):
        assert solve_fixed_modes(states, same, 1.0) == want
    assert kkt_residuals(want, states, np.array(modes)) == kkt_residuals(want, states, modes)
    f = np.array([0.4, 0.6])
    np.testing.assert_array_equal(scan_split_energies(states, np.array(modes), 1.0, f),
                                  scan_split_energies(states, modes, 1.0, f))


@pytest.mark.parametrize("modes,first_bad", [
    (["pnc"] * 6, "pnc"),
    (np.array(["pnc"] * 6), np.str_("pnc")),
    ([0] * 6, 0),
    (np.zeros(6, dtype=int), np.int64(0)),
    ([Mode.PNC] * 5 + [None], None),
])
def test_mode_entries_that_are_not_modes_are_refused(modes, first_bad):
    with pytest.raises(ValueError, match=re.escape(f"got {first_bad!r}")):
        solve_fixed_modes(sample_states(6, 3), modes, 1.0)


def test_negative_target_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        solve_fixed_modes([UNIT], [Mode.PNC], -0.5)


def test_bad_solver_options_rejected():
    with pytest.raises(ValueError):
        SolverOptions(f_lo=0.9, f_hi=0.1)
    with pytest.raises(ValueError):
        SolverOptions(rate_rtol=0.0)
    with pytest.raises(ValueError, match="rate_rtol < 1"):
        SolverOptions(rate_rtol=1.0)  # a silent probe would count as close
    for steps in (2.5, True, 0):  # a float cap raised TypeError at the first solve
        with pytest.raises(ValueError, match="max_bisect_iter must be an integer"):
            SolverOptions(max_bisect_iter=steps)


def test_options_are_plain_data():
    opts = SolverOptions()
    assert dataclasses.replace(opts, refine_uplink=False).refine_uplink is False


# ------------------------------------------------ relative KKT residuals

def test_relative_residuals_flag_a_wrong_split_at_large_gains():
    # the split f_u = 0.5 is 0.53% above the optimum here, but every
    # energy is ~1e-12, so the absolute residuals look converged
    states = [ChannelState(1e12, 1e12, 1e12, 1e12)]
    res = kkt_residuals(_resolve_at_split(states, [Mode.PNC], 1.0, 0.5), states)
    assert res.worst < 1e-9
    assert res.worst_relative > 1e-3


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12])
@pytest.mark.parametrize("mode", list(Mode))
def test_relative_residuals_vanish_at_the_solver_answer(scale, mode):
    states = [ChannelState(scale, scale, scale, scale)]
    res = kkt_residuals(solve_fixed_modes(states, [mode], 1.0), states)
    assert res.worst_relative <= 1e-8


def test_kkt_residuals_take_modes_and_a_state_list():
    # the columns and a list of states give the same residuals, and passing
    # the allocation's own modes changes nothing
    states = sample_states(200, 5)
    modes = [Mode.PNC if i % 3 else Mode.SPCDNC for i in range(200)]
    alloc = solve_fixed_modes(states, modes, 1.5)
    base = kkt_residuals(alloc, states)
    assert kkt_residuals(alloc, list(states)) == base
    assert kkt_residuals(alloc, states, modes) == base
    assert base.worst_relative <= 1e-8


# ------------------------------------------------------ columnar schedule

def test_per_state_is_columnar_and_builds_items_on_demand():
    states = sample_states(40, 8)
    modes = [Mode.PNC if i % 2 else Mode.SPCDNC for i in range(40)]
    alloc = solve_fixed_modes(states, modes, 0.75)
    per = alloc.per_state
    assert isinstance(per, allocation.StateAllocations)
    assert len(per) == 40 and per.pnc.tolist() == [m is Mode.PNC for m in modes]
    for col in (per.pnc, per.rate_u, per.rate_d, per.power_u, per.power_d):
        assert not col.flags.writeable
    items = list(per)
    assert all(isinstance(sa, StateAllocation) for sa in items)
    assert [sa.mode for sa in items] == modes
    assert per[-1] == items[-1] and per[3].rate_u == float(per.rate_u[3])
    assert list(per[5:9]) == items[5:9]
    assert per == tuple(items) and per == items and per != items[:-1]
    # a tuple of items passed to Allocation becomes the same columns
    again = dataclasses.replace(alloc, per_state=tuple(items))
    assert isinstance(again.per_state, allocation.StateAllocations)
    assert again == alloc


@pytest.mark.parametrize("bad, message", [
    ((0.5, -1.0, 1.0, 0.0), "rate_d must be nonnegative"),
    ((0.5, 0.0, math.inf, 0.0), "power_u must be nonnegative"),
    ((0.5, 0.0, 0.0, 0.0), "rate_u and power_u must vanish together"),
    ((0.0, 0.5, 0.0, 0.0), "rate_d and power_d must vanish together"),
])
def test_per_state_columns_keep_the_item_invariants(bad, message):
    # (rate_u, rate_d, power_u, power_d) of three states, the middle one bad
    rows = [(0.5, 0.25, 1.0, 2.0), bad, (0.5, 0.25, 1.0, 2.0)]
    with pytest.raises(ValueError, match=message):
        StateAllocation(Mode.PNC, *bad)
    with pytest.raises(ValueError, match=message):
        allocation.StateAllocations([True, False, True], *zip(*rows))
