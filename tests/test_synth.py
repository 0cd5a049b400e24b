"""Synthetic generator: clear-sky shape, attenuation bounds, determinism."""

import io
from datetime import date as Date
from unittest import mock

import numpy as np
import pytest

from twotier.errors import MalformedRow
from twotier.rng import MAX_POISSON_RATE, SplitMix64
from twotier.synth import (
    CLOUDY,
    SUNNY,
    SynthConfig,
    clear_sky_profile,
    generate,
    read_labels_csv,
    write_labels_csv,
)
from twotier.timeseries import MAX_POWER_W, SamplingGrid, export_csv, ingest_csv


@pytest.mark.parametrize("peak", [1e303, 1e308, np.nextafter(MAX_POWER_W, np.inf)])
def test_peak_power_past_the_rounding_limit_rejected(peak):
    # the bound is the largest reading ingest accepts, far below the
    # ~1.8e302 W where rounding samples to 1e-6 W overflows
    with pytest.raises(ValueError, match="peak_power_w"):
        SynthConfig(peak_power_w=peak)


def test_largest_peak_power_generates_finite_days():
    series = generate(SynthConfig(peak_power_w=MAX_POWER_W, cloudiness=0.5), 4).series
    assert np.all(np.isfinite(series.power)) and series.power.max() <= MAX_POWER_W
    sink = io.StringIO()
    export_csv(series, sink)
    assert ingest_csv(sink.getvalue(), series.grid).power.tobytes() == series.power.tobytes()


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(peak_power_w=-1)
    with pytest.raises(ValueError):
        SynthConfig(cloudiness=1.5)
    with pytest.raises(ValueError):
        SynthConfig(sunrise_sample=50, sunset_sample=40)
    with pytest.raises(ValueError):
        SynthConfig(cloud_depth_low=0.9, cloud_depth_high=0.2)


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
    config = SynthConfig(cloudiness=0.0, rng_seed=99)
    bell = np.round(clear_sky_profile(config, SamplingGrid()), 6)
    result = generate(config, 5)
    assert all(lab == SUNNY for lab in result.labels)
    for day in result.series.days:
        assert np.array_equal(day.samples, bell)


def test_clear_days_identical_across_seeds():
    a = generate(SynthConfig(cloudiness=0.0, rng_seed=1), 3)
    b = generate(SynthConfig(cloudiness=0.0, rng_seed=2), 3)
    for da, db in zip(a.series.days, b.series.days):
        assert np.array_equal(da.samples, db.samples)


def test_samples_within_physical_bounds():
    config = SynthConfig(cloudiness=1.0, rng_seed=11)
    result = generate(config, 20)
    for day in result.series.days:
        assert np.all(day.samples >= 0.0)
        assert np.all(day.samples <= config.peak_power_w + 1e-6)


def test_night_samples_exactly_zero():
    config = SynthConfig(cloudiness=1.0, rng_seed=5)
    result = generate(config, 10)
    for day in result.series.days:
        assert np.all(day.samples[: config.sunrise_sample] == 0.0)
        assert np.all(day.samples[config.sunset_sample + 1 :] == 0.0)


def test_same_seed_bit_identical():
    config = SynthConfig(rng_seed=123)
    a = generate(config, 15)
    b = generate(config, 15)
    assert a.labels == b.labels
    for da, db in zip(a.series.days, b.series.days):
        assert np.array_equal(da.samples, db.samples)


def test_cloudy_days_attenuated():
    result = generate(SynthConfig(rng_seed=1), 30)
    bell = np.round(clear_sky_profile(SynthConfig(), SamplingGrid()), 6)
    for day, label in zip(result.series.days, result.labels):
        if label == CLOUDY:
            assert day.samples.sum() < bell.sum()


def test_attenuation_level_respects_depth_range():
    # depth range (0.2, 0.75) bounds daylight attenuation to [0.25, 0.8];
    # check at solar noon where the bell is far from zero
    config = SynthConfig(cloudiness=1.0, rng_seed=7)
    result = generate(config, 40)
    bell = clear_sky_profile(config, SamplingGrid())
    noon = int(np.argmax(bell))
    for day in result.series.days:
        ratio = day.samples[noon] / bell[noon]
        assert 0.25 - 1e-6 <= ratio <= 0.8 + 1e-6


def test_generate_rejects_zero_days():
    with pytest.raises(ValueError):
        generate(SynthConfig(), 0)


def test_span_past_date_max_rejected_before_any_draw():
    draws = []
    real = SplitMix64.next_raw
    with mock.patch.object(SplitMix64, "next_raw", lambda rng: draws.append(1) or real(rng)):
        with pytest.raises(ValueError, match="40 days from 9999-12-01 run past 9999-12-31"):
            generate(SynthConfig(start_date=Date(9999, 12, 1)), 40)
    assert draws == []


@pytest.mark.parametrize("rate", [MAX_POISSON_RATE, 0.0])
def test_cloud_event_rate_bounds_accepted(rate):
    assert generate(SynthConfig(cloud_event_rate=rate, cloudiness=1.0), 1).labels == (CLOUDY,)


@pytest.mark.parametrize("rate", [np.nextafter(MAX_POISSON_RATE, np.inf), 800.0, 1e6, np.nan])
def test_cloud_event_rate_the_sampler_cannot_draw_rejected(rate):
    with pytest.raises(ValueError, match=r"cloud_event_rate must be in \[0, 700\]"):
        SynthConfig(cloud_event_rate=rate)


def test_label_lookup():
    result = generate(SynthConfig(rng_seed=1), 5)
    for day, label in zip(result.series.days, result.labels):
        assert result.label_for(day.date) == label
    for outside in (Date(1999, 1, 1), Date(2015, 2, 14), Date(2015, 2, 20)):
        with pytest.raises(KeyError, match=f"date {outside.isoformat()} not generated"):
            result.label_for(outside)


def test_labels_csv_round_trip():
    result = generate(SynthConfig(rng_seed=3), 8)
    buf = io.StringIO()
    write_labels_csv(result, buf)
    labels = read_labels_csv(buf.getvalue())
    assert len(labels) == 8
    for day, label in zip(result.series.days, result.labels):
        assert labels[day.date] == label


def test_labels_csv_skips_blank_lines():
    text = "date,label\n2015-02-15,sunny\n\n2015-02-16,cloudy\n"
    assert read_labels_csv(text) == {Date(2015, 2, 15): SUNNY, Date(2015, 2, 16): CLOUDY}


def test_labels_csv_drops_one_leading_bom():
    """One leading U+FEFF is dropped, as every reader does; a second is
    part of the header."""
    text = "date,label\n2015-02-15,sunny\n"
    assert read_labels_csv("\ufeff" + text) == read_labels_csv(text)
    with pytest.raises(MalformedRow, match=r"^line 1: expected header 'date,label'$"):
        read_labels_csv("\ufeff\ufeff" + text)


def test_labels_csv_rejects_a_repeated_date():
    """A second label for a date is an error, as a repeated timestamp is in
    a data CSV, not a silent overwrite."""
    text = "date,label\n2015-02-15,sunny\n2015-02-16,sunny\n2015-02-15,cloudy\n"
    with pytest.raises(MalformedRow) as err:
        read_labels_csv(text)
    assert str(err.value) == "line 4: duplicate date '2015-02-15'"


@pytest.mark.parametrize("text, message", [
    ("", "line 1: expected header 'date,label'"),
    ("day,label\n2015-02-15,sunny\n", "line 1: expected header 'date,label'"),
    ("date,label\n2015-02-15,sunny\n2015-02-16\n", "line 3: expected 2 fields, got 1"),
    ("date,label\n2015-02-15,sunny,x\n", "line 2: expected 2 fields, got 3"),
    ("date,label\nnot-a-date,sunny\n", "line 2: bad date 'not-a-date'"),
    ("date,label\n2015-02-15,rainy\n", "line 2: unknown label 'rainy'"),
    ("date,label\n" + "2" * 41 + ",sunny\n",
     "line 2: bad date '" + "2" * 40 + "'... (41 characters)"),
    ("date,label\n2015-02-15," + "r" * 41 + "\n",
     "line 2: unknown label '" + "r" * 40 + "'... (41 characters)"),
], ids=["empty", "header", "one-field", "three-fields", "date", "label", "long-date",
        "long-label"])
def test_malformed_labels_csv_rejected(text, message):
    with pytest.raises(MalformedRow) as err:
        read_labels_csv(text)
    assert str(err.value) == message


def test_series_passes_solarseries_invariants():
    # construction succeeding is the check: SolarSeries validates dates,
    # indices, and grid length on build
    result = generate(SynthConfig(rng_seed=2), 12)
    assert result.series.num_days == 12
    assert result.series.grid.samples_per_day == 96
