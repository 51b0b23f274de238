"""Formula layer: hand-derived values and the switching criterion."""

import math

import numpy as np
import pytest

from twrelay import (
    ChannelState,
    dnc_uplink_sum_power,
    dnc_uplink_user_powers,
    downlink_power,
    energy_gap,
    pnc_uplink_rate,
    pnc_uplink_sum_power,
    prefer_pnc,
)

UNIT = ChannelState(1.0, 1.0, 1.0, 1.0)


def test_pnc_uplink_rate_values():
    assert abs(pnc_uplink_rate(1.5) - 1.0) <= 1e-9
    assert pnc_uplink_rate(0.5) == 0.0
    assert abs(pnc_uplink_rate(3.5) - 2.0) <= 1e-9
    assert pnc_uplink_rate(0.1) == 0.0  # below the log2(1/2 + snr) > 0 threshold


def test_pnc_uplink_rate_rejects_negative_snr():
    with pytest.raises(ValueError, match="nonnegative"):
        pnc_uplink_rate(-0.1)


def test_pnc_sum_power_values():
    assert abs(pnc_uplink_sum_power(1.0, UNIT) - 3.0) <= 1e-9
    assert abs(pnc_uplink_sum_power(2.0, UNIT) - 7.0) <= 1e-9
    assert abs(pnc_uplink_sum_power(1.0, ChannelState(1.0, 2.0, 1.0, 2.0)) - 2.25) <= 1e-9


def test_dnc_sum_power_values():
    assert abs(dnc_uplink_sum_power(1.0, UNIT) - 3.0) <= 1e-9
    assert abs(dnc_uplink_sum_power(2.0, UNIT) - 15.0) <= 1e-9
    # weak user on the unit link, strong user on the gain-2 link
    assert abs(dnc_uplink_sum_power(1.0, ChannelState(2.0, 1.0, 2.0, 1.0)) - 2.0) <= 1e-9


def test_dnc_user_powers_values():
    weak, strong = dnc_uplink_user_powers(1.0, ChannelState(1.0, 4.0, 1.0, 4.0))
    assert abs(weak - 1.0) <= 1e-9 and abs(strong - 0.5) <= 1e-9
    # swap symmetry: the weak/strong roles follow the gains, not the indices
    assert dnc_uplink_user_powers(1.0, ChannelState(4.0, 1.0, 4.0, 1.0)) == (weak, strong)
    tie = dnc_uplink_user_powers(2.0, UNIT)
    assert abs(tie[0] - 3.0) <= 1e-9 and abs(tie[1] - 12.0) <= 1e-9


def test_dnc_user_powers_sum_to_total():
    rng = np.random.default_rng(5)
    for _ in range(200):
        g1, g2 = rng.exponential(1.0, size=2)
        s = ChannelState(float(g1), float(g2), float(g1), float(g2))
        r = float(rng.uniform(0.05, 3.0))
        weak, strong = dnc_uplink_user_powers(r, s)
        total = dnc_uplink_sum_power(r, s)
        assert abs(weak + strong - total) <= 1e-12 * total


def test_downlink_power_values():
    assert abs(downlink_power(1.0, ChannelState(1.0, 1.0, 1.0, 4.0)) - 1.0) <= 1e-9
    assert abs(downlink_power(1.0, ChannelState(1.0, 1.0, 4.0, 1.0)) - 1.0) <= 1e-9
    assert abs(downlink_power(2.0, ChannelState(1.0, 1.0, 0.5, 2.0)) - 6.0) <= 1e-9


def test_energy_gap_values():
    assert abs(energy_gap(1.0, UNIT)) <= 1e-9
    assert abs(energy_gap(2.0, UNIT) - (-8.0)) <= 1e-9
    # at R = 1/2 the SPC-DNC sum collapses to (sqrt2-1)(1+sqrt2) = 1,
    # leaving 2(sqrt2 - 1/2) - 1 = 2 sqrt2 - 2
    assert abs(energy_gap(0.5, UNIT) - (2.0 * math.sqrt(2.0) - 2.0)) <= 1e-12


def test_prefer_pnc_values():
    assert prefer_pnc(2.0, UNIT) is True
    assert prefer_pnc(0.5, UNIT) is False
    assert prefer_pnc(1.0, ChannelState(0.1, 10.0, 0.1, 10.0)) is False


def test_equal_gains_prefer_pnc_iff_rate_at_least_one():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        g = float(rng.exponential(1.0))
        r = float(rng.uniform(0.05, 4.0))
        s = ChannelState(g, g, g, g)
        assert prefer_pnc(r, s) == (r >= 1.0), (r, g)
    # exact boundary: the tie goes to PNC
    assert prefer_pnc(1.0, ChannelState(0.37, 0.37, 0.37, 0.37)) is True


def test_gap_sign_matches_preference_and_closed_form():
    rng = np.random.default_rng(99)
    for _ in range(2000):
        g1, g2 = rng.exponential(1.0, size=2)
        s = ChannelState(float(g1), float(g2), float(g1), float(g2))
        r = float(rng.uniform(0.05, 4.0))
        direct = energy_gap(r, s)
        x = 2.0 ** r
        algebraic = x * (2.0 - x) / s.g_Mr + 0.5 / s.g_mr - 0.5 / s.g_Mr
        # the gap passes through zero, so agreement is measured against the
        # powers being subtracted, not the difference itself
        scale = max(pnc_uplink_sum_power(r, s), dnc_uplink_sum_power(r, s))
        assert abs(direct - algebraic) <= 1e-12 * scale
        assert prefer_pnc(r, s) == (direct <= 0.0)


def test_uplink_powers_increase_with_rate():
    rng = np.random.default_rng(8)
    rates = np.linspace(0.05, 4.0, 120)
    for _ in range(25):
        g1, g2 = rng.exponential(1.0, size=2)
        s = ChannelState(float(g1), float(g2), float(g1), float(g2))
        pnc = [pnc_uplink_sum_power(r, s) for r in rates]
        dnc = [dnc_uplink_sum_power(r, s) for r in rates]
        dn = [downlink_power(r, s) for r in rates]
        assert all(b > a for a, b in zip(pnc, pnc[1:]))
        assert all(b > a for a, b in zip(dnc, dnc[1:]))
        assert all(b > a for a, b in zip(dn, dn[1:]))


def test_uplink_sums_are_swap_symmetric():
    rng = np.random.default_rng(13)
    for _ in range(100):
        g1, g2 = rng.exponential(1.0, size=2)
        s = ChannelState(float(g1), float(g2), float(g1), float(g2))
        t = ChannelState(float(g2), float(g1), float(g2), float(g1))
        r = float(rng.uniform(0.1, 3.0))
        assert pnc_uplink_sum_power(r, s) == pnc_uplink_sum_power(r, t)
        assert dnc_uplink_sum_power(r, s) == dnc_uplink_sum_power(r, t)


def test_dnc_decode_order_is_the_cheap_one():
    # decoding the weak-link user first instead would cost
    # (2^R-1)/g_Mr + 2^R (2^R-1)/g_mr
    rng = np.random.default_rng(21)
    for _ in range(300):
        g1, g2 = rng.exponential(1.0, size=2)
        s = ChannelState(float(g1), float(g2), float(g1), float(g2))
        r = float(rng.uniform(0.05, 3.0))
        x = 2.0 ** r
        reversed_order = (x - 1.0) / s.g_Mr + x * (x - 1.0) / s.g_mr
        assert dnc_uplink_sum_power(r, s) <= reversed_order + 1e-12
        if abs(g1 - g2) > 1e-9:
            assert dnc_uplink_sum_power(r, s) < reversed_order


@pytest.mark.parametrize("fn", [
    pnc_uplink_sum_power,
    dnc_uplink_sum_power,
    dnc_uplink_user_powers,
    downlink_power,
    energy_gap,
    prefer_pnc,
])
def test_zero_rate_is_a_domain_error(fn):
    with pytest.raises(ValueError, match="positive"):
        fn(0.0, UNIT)


# ------------------------------------------------- elementwise mode choice

def test_prefer_pnc_on_arrays_matches_the_scalar_decisions():
    from twrelay.channel import States

    rng = np.random.default_rng(2024)
    n = 10_000
    g = 10.0 ** rng.uniform(-3.0, 3.0, (4, n))
    g[:, :500] = g[0, :500]  # equal gains, where the choice is R >= 1
    rates = rng.uniform(0.01, 4.0, n)
    rates[:250] = 1.0
    # rates at and one ulp either side of each state's boundary
    # 2^R = 1 + sqrt(1 + (g_Mr / g_mr - 1) / 2)
    g_mr, g_Mr = np.minimum(g[0], g[1]), np.maximum(g[0], g[1])
    edge = np.log2(1.0 + np.sqrt(1.0 + 0.5 * (g_Mr / g_mr - 1.0)))
    rates[1000:2000] = edge[1000:2000]
    rates[2000:3000] = np.nextafter(edge[2000:3000], 0.0)
    rates[3000:4000] = np.nextafter(edge[3000:4000], np.inf)
    states = States(*g)
    got = prefer_pnc(rates, states)
    assert got.dtype == bool and got.shape == (n,)
    want = [prefer_pnc(float(r), s) for r, s in zip(rates, states)]
    assert got.tolist() == want
    assert got[:250].all()  # ties at R = 1 pick PNC
    assert 0 < got[1000:4000].sum() < 3000  # both sides of the boundary occur


def test_prefer_pnc_returns_a_bool_for_a_scalar_and_checks_every_rate():
    from twrelay.channel import States

    assert prefer_pnc(np.float64(2.0), UNIT) is True
    assert prefer_pnc(0.5, UNIT) is False
    states = States([1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0])
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            prefer_pnc(np.array([1.5, bad]), states)
