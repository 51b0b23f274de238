"""Channel state sampling, the CSV round trip, and input validation."""

import math

import numpy as np
import pytest
from scipy import stats

from twrelay import ChannelState, FadingModel, load_states, sample_states, save_states
from twrelay.channel import DETERMINISTIC


def test_sampling_is_deterministic():
    a = sample_states(50, 123)
    b = sample_states(50, 123)
    assert a == b
    c = sample_states(50, 124)
    assert a != c


def test_reciprocal_draw_ties_downlink_to_uplink():
    for s in sample_states(5, 42):
        assert s.gr1 == s.g1r
        assert s.gr2 == s.g2r


def test_nonreciprocal_draw_has_independent_downlink():
    states = sample_states(20, 42, FadingModel(reciprocal=False))
    assert any(s.gr1 != s.g1r for s in states)
    assert any(s.gr2 != s.g2r for s in states)


def test_deterministic_model_is_passthrough():
    fixed = [
        ChannelState(1.0, 2.0, 1.0, 2.0),
        ChannelState(0.5, 0.5, 3.0, 0.25),
        ChannelState(2.0, 2.0, 2.0, 2.0),
    ]
    model = FadingModel(kind=DETERMINISTIC, states=fixed)
    assert sample_states(3, 999, model) == fixed
    with pytest.raises(ValueError, match="3 states"):
        sample_states(4, 999, model)


def test_sample_mean_near_unity(seed7_states):
    mean = np.mean([s.g1r for s in seed7_states])
    assert 0.9 <= mean <= 1.1


def test_gains_match_exponential_distribution():
    # KS test against exp(1) at the 1% level; critical value 1.6276/sqrt(n)
    states = sample_states(100_000, 2)
    sample = np.array([s.g1r for s in states])
    ks = stats.kstest(sample, "expon").statistic
    assert ks < 1.6276 / math.sqrt(sample.size)


def test_derived_gain_accessors():
    s = ChannelState(0.4, 1.6, 2.0, 0.3)
    assert s.g_mr == 0.4
    assert s.g_Mr == 1.6
    assert s.g_rm == 0.3


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_nonpositive_or_nonfinite_gain_rejected(bad):
    with pytest.raises(ValueError, match="positive and finite"):
        ChannelState(bad, 1.0, 1.0, 1.0)


def test_save_load_round_trip(tmp_path):
    states = sample_states(25, 77, FadingModel(reciprocal=False))
    path = tmp_path / "states.csv"
    save_states(states, path)
    assert load_states(path) == states


def test_load_reports_row_of_bad_field_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("g1r,g2r,gr1,gr2\n1.0,2.0,1.0,2.0\n1.0,2.0\n")
    with pytest.raises(ValueError, match="row 3"):
        load_states(path)


def test_load_reports_row_of_non_numeric_gain(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("g1r,g2r,gr1,gr2\nx,2.0,1.0,2.0\n")
    with pytest.raises(ValueError, match="row 2.*non-numeric"):
        load_states(path)


def test_load_reports_row_of_nonpositive_gain(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("g1r,g2r,gr1,gr2\n1.0,1.0,1.0,1.0\n0.0,1,1,1\n")
    with pytest.raises(ValueError, match="row 3"):
        load_states(path)


def test_load_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c,d\n1,1,1,1\n")
    with pytest.raises(ValueError, match="header"):
        load_states(path)


def test_load_rejects_empty_data_section(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("g1r,g2r,gr1,gr2\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_states(path)


# ----------------------------------------------------------- columns

def test_load_counts_blank_lines_in_row_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("g1r,g2r,gr1,gr2\n1.0,1.0,1.0,1.0\n\n , , , \n0.0,1,1,1\n")
    with pytest.raises(ValueError, match="row 5: channel gain g1r must be positive"):
        load_states(path)


def test_load_reads_padded_cells_as_float_does(tmp_path):
    path = tmp_path / "padded.csv"
    cells = [" 1.5 ", "\t2", "3e-1 ", "  4_0"]
    path.write_text("g1r, g2r ,gr1,gr2\n" + ",".join(cells) + "\n\n")
    states = load_states(path)
    assert list(states) == [ChannelState(*(float(c) for c in cells))]


@pytest.mark.parametrize("newline", ["\n", "\r", "\r\n"])
def test_load_reads_quoted_cells_and_any_line_ending(tmp_path, newline):
    path = tmp_path / "quoted.csv"
    rows = ['"g1r","g2r",gr1,gr2', '"1.5","2",3,4', '0.5,"6e-1",7,"8"']
    path.write_bytes((newline.join(rows) + newline).encode())
    states = load_states(path)
    assert list(states) == [ChannelState(1.5, 2.0, 3.0, 4.0), ChannelState(0.5, 0.6, 7.0, 8.0)]


def test_load_rejects_overflowing_gain_with_its_row(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("g1r,g2r,gr1,gr2\n1,1,1,1\n1,1,1e400,1\n")
    with pytest.raises(ValueError, match="row 3: channel gain gr1 must be positive and finite"):
        load_states(path)


def test_load_reports_the_first_bad_row_of_either_kind(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("g1r,g2r,gr1,gr2\n1,1,1,1\n1,-2,1,1\n1,x,1,1\n")
    with pytest.raises(ValueError, match="row 3: channel gain g2r"):
        load_states(path)
    path.write_text("g1r,g2r,gr1,gr2\n1,1,1,1\n1,x,1,1\n1,-2,1,1\n")
    with pytest.raises(ValueError, match="row 3: non-numeric"):
        load_states(path)


def test_states_behave_like_the_list_of_states():
    from twrelay.channel import States

    states = sample_states(8, 31)
    gains = np.random.default_rng(31).exponential(1.0, (8, 4))
    listed = [ChannelState(a, b, a, b) for a, b in gains[:, :2].tolist()]
    assert isinstance(states, States)
    assert len(states) == 8
    assert list(states) == listed
    assert states[-1] == listed[-1] and states[3] == listed[3]
    part = states[2:5]
    assert isinstance(part, States) and part == listed[2:5]
    assert listed[2:5] == part and tuple(listed[2:5]) == part
    assert states != listed[:-1] and states != "abc"
    with pytest.raises(IndexError):
        states[8]
    assert not states.g1r.flags.writeable
    with pytest.raises(ValueError, match="state 1: channel gain gr2"):
        States([1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.0, math.nan])


@pytest.mark.parametrize("seed", [1, 7, 123])
def test_sample_columns_are_the_generator_block(seed):
    gains = np.random.default_rng(seed).exponential(1.0, (500, 4))
    gains[:, 2], gains[:, 3] = gains[:, 0], gains[:, 1]
    states = sample_states(500, seed)
    for k, name in enumerate(("g1r", "g2r", "gr1", "gr2")):
        assert np.array_equal(getattr(states, name), gains[:, k])


def test_save_writes_what_the_csv_module_writes(tmp_path):
    import csv

    states = sample_states(30, 4, FadingModel(reciprocal=False))
    path = tmp_path / "states.csv"
    save_states(states, path)
    want = tmp_path / "want.csv"
    with open(want, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("g1r", "g2r", "gr1", "gr2"))
        for s in states:
            writer.writerow([f"{v:.17g}" for v in (s.g1r, s.g2r, s.gr1, s.gr2)])
    assert path.read_bytes() == want.read_bytes()
    save_states(list(states), path)
    assert path.read_bytes() == want.read_bytes()
