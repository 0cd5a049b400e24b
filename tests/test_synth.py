"""Synthetic generator: clear-sky shape, attenuation bounds, determinism."""

import io
from datetime import date as Date

import numpy as np
import pytest

from twotier.errors import MalformedRow
from twotier.synth import (
    CLOUDY,
    SUNNY,
    SynthConfig,
    clear_sky_profile,
    generate,
    read_labels_csv,
    write_labels_csv,
)
from twotier.timeseries import SamplingGrid


@pytest.mark.parametrize("peak", [1e303, 1e308])
def test_peak_power_past_the_rounding_limit_rejected(peak):
    # generate rounds samples to 1e-6 W, which overflows above ~1.8e302 W
    with pytest.raises(ValueError, match="peak_power_w"):
        SynthConfig(peak_power_w=peak)


def test_largest_peak_power_generates_finite_days():
    days = generate(SynthConfig(peak_power_w=1e302, cloudiness=0.5), 4).series.power
    assert np.all(np.isfinite(days)) and days.max() <= 1e302


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(peak_power_w=-1)
    with pytest.raises(ValueError):
        SynthConfig(cloudiness=1.5)
    with pytest.raises(ValueError):
        SynthConfig(sunrise_sample=50, sunset_sample=40)
    with pytest.raises(ValueError):
        SynthConfig(cloud_depth=(0.9, 0.2))


def test_clear_sky_bell_shape():
    config = SynthConfig()
    bell = clear_sky_profile(config, SamplingGrid())
    assert bell.size == 96
    assert bell[config.sunrise_sample] == 0.0
    assert np.all(bell[: config.sunrise_sample] == 0.0)
    assert np.all(bell[config.sunset_sample + 1 :] == 0.0)
    assert bell.max() == pytest.approx(config.peak_power_w)
    # symmetric about solar noon
    rise, set_ = config.sunrise_sample, config.sunset_sample
    daylight = bell[rise : set_ + 1]
    assert np.allclose(daylight, daylight[::-1], atol=1e-9)


def test_cloudiness_zero_gives_exact_bell_every_day():
    config = SynthConfig(cloudiness=0.0)
    bell = np.round(clear_sky_profile(config, SamplingGrid()), 6)
    result = generate(config, 5, seed=99)
    assert all(lab == SUNNY for lab in result.labels)
    for day in result.series.days:
        assert np.array_equal(day.samples, bell)


def test_clear_days_identical_across_seeds():
    config = SynthConfig(cloudiness=0.0)
    a = generate(config, 3, seed=1)
    b = generate(config, 3, seed=2)
    for da, db in zip(a.series.days, b.series.days):
        assert np.array_equal(da.samples, db.samples)


def test_samples_within_physical_bounds():
    config = SynthConfig(cloudiness=1.0)
    result = generate(config, 20, seed=11)
    for day in result.series.days:
        assert np.all(day.samples >= 0.0)
        assert np.all(day.samples <= config.peak_power_w + 1e-6)


def test_night_samples_exactly_zero():
    config = SynthConfig(cloudiness=1.0)
    result = generate(config, 10, seed=5)
    for day in result.series.days:
        assert np.all(day.samples[: config.sunrise_sample] == 0.0)
        assert np.all(day.samples[config.sunset_sample + 1 :] == 0.0)


def test_same_seed_bit_identical():
    config = SynthConfig()
    a = generate(config, 15, seed=123)
    b = generate(config, 15, seed=123)
    assert a.labels == b.labels
    for da, db in zip(a.series.days, b.series.days):
        assert np.array_equal(da.samples, db.samples)


def test_cloudy_days_attenuated():
    result = generate(SynthConfig(), 30, seed=1)
    bell = np.round(clear_sky_profile(SynthConfig(), SamplingGrid()), 6)
    for day, label in zip(result.series.days, result.labels):
        if label == CLOUDY:
            assert day.samples.sum() < bell.sum()


def test_attenuation_level_respects_depth_range():
    # depth range (0.2, 0.75) bounds daylight attenuation to [0.25, 0.8];
    # check at solar noon where the bell is far from zero
    config = SynthConfig(cloudiness=1.0)
    result = generate(config, 40, seed=7)
    bell = clear_sky_profile(config, SamplingGrid())
    noon = int(np.argmax(bell))
    for day in result.series.days:
        ratio = day.samples[noon] / bell[noon]
        assert 0.25 - 1e-6 <= ratio <= 0.8 + 1e-6


def test_generate_rejects_zero_days():
    with pytest.raises(ValueError):
        generate(SynthConfig(), 0)


def test_label_lookup():
    result = generate(SynthConfig(), 5, seed=1)
    assert result.label_for(Date(2015, 2, 15)) in (SUNNY, CLOUDY)
    with pytest.raises(KeyError):
        result.label_for(Date(1999, 1, 1))


def test_labels_csv_round_trip():
    result = generate(SynthConfig(), 8, seed=3)
    buf = io.StringIO()
    write_labels_csv(result, buf)
    labels = read_labels_csv(io.StringIO(buf.getvalue()))
    assert len(labels) == 8
    for day, label in zip(result.series.days, result.labels):
        assert labels[day.date] == label


def test_labels_csv_reads_str_bytes_and_streams():
    text = "date,label\n2015-02-15,sunny\n\n2015-02-16,cloudy\n"
    want = {Date(2015, 2, 15): SUNNY, Date(2015, 2, 16): CLOUDY}
    for source in (text, text.encode(), io.StringIO(text), io.BytesIO(text.encode())):
        assert read_labels_csv(source) == want


@pytest.mark.parametrize("text, message", [
    ("", "line 1: expected header 'date,label'"),
    ("day,label\n2015-02-15,sunny\n", "line 1: expected header 'date,label'"),
    ("date,label\n2015-02-15,sunny\n2015-02-16\n", "line 3: expected 2 fields, got 1"),
    ("date,label\n2015-02-15,sunny,x\n", "line 2: expected 2 fields, got 3"),
    ("date,label\nnot-a-date,sunny\n", "line 2: bad date 'not-a-date'"),
    ("date,label\n2015-02-15,rainy\n", "line 2: unknown label 'rainy'"),
    (b"date,label\n2015-02-15,sunny\xff\n",
     "label file is not UTF-8 text: byte 27 is invalid"),
], ids=["empty", "header", "one-field", "three-fields", "date", "label", "not-utf8"])
def test_malformed_labels_csv_rejected(text, message):
    with pytest.raises(MalformedRow) as err:
        read_labels_csv(text)
    assert str(err.value) == message


def test_series_passes_solarseries_invariants():
    # construction succeeding is the check: SolarSeries validates dates,
    # indices, and grid length on build
    result = generate(SynthConfig(), 12, seed=2)
    assert result.series.num_days == 12
    assert result.series.grid.samples_per_day == 96
