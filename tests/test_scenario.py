from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from datamarket.cities import CITIES, DC_STATES, cities_in_state
from datamarket.model import DatamarketError, instance_to_json, split_by_provider, validate_instance
from datamarket.scenario import (
    MAX_CLIENT_PROVIDER_PAIRS,
    MAX_LEVELS,
    MAX_PROVIDER_LEVELS,
    InvalidRatioTargets,
    ScenarioParams,
    calibration_scales,
    generate,
    pareto_draw,
    sweep_params,
)
from datamarket.rng import SplitMix64
from oracles import instance_log_ratios, zipf_level

F = Fraction

SMALL = ScenarioParams(seed=7, num_data_centers=4, num_providers=6, num_clients=12, levels_per_provider=4)


def test_city_table_covers_dc_states():
    for state in DC_STATES:
        assert len(cities_in_state(state)) >= 3
    assert len(CITIES) >= 100
    assert all(c.population > 0 for c in CITIES)
    assert all(-90 <= c.lat <= 90 and -180 <= c.lon <= 180 for c in CITIES)


def test_generate_is_deterministic():
    from datamarket.model import instance_to_json
    import json

    a = generate(SMALL)
    b = generate(SMALL)
    assert json.dumps(instance_to_json(a), sort_keys=True) == json.dumps(
        instance_to_json(b), sort_keys=True
    )
    c = generate(ScenarioParams(**{**SMALL.__dict__, "seed": 8}))
    assert c != a


def test_generated_instance_is_valid():
    inst = generate(SMALL)
    assert validate_instance(inst).ok
    assert len(inst.data_centers) == 4
    assert len(inst.providers) == 6
    assert len(inst.clients) == 12
    for c in inst.clients:
        assert len(c.demands) >= 1
    # Satisfiability and fee monotonicity are validation invariants; spot
    # check min level resolution round-trips through split_by_provider.
    for sub in split_by_provider(inst):
        for lvl in sub.min_levels:
            assert 1 <= lvl <= 4


def test_data_centers_sit_in_listed_state_capitals_of_population():
    inst = generate(SMALL)
    for i, dc in enumerate(inst.data_centers):
        top = cities_in_state(DC_STATES[i])[0]
        assert dc.location == (top.lat, top.lon)


def test_calibrated_ratios_hit_targets():
    inst = generate(SMALL)
    band, internal = instance_log_ratios(inst)
    assert abs(band - SMALL.ratio_band_to_fee) <= 1e-3
    assert abs(internal - SMALL.ratio_internal_to_external) <= 1e-3


def test_calibration_formulas():
    # s_beta = F(r1-r2)/(B(1+r2)); s_alpha = r2(s_beta B + F)/A.
    A, B, Fsum = F(7), F(3), F(240)
    r1, r2 = F(1, 10), F(1, 100)
    s_alpha, s_beta = calibration_scales(A, B, Fsum, r1, r2)
    assert s_alpha * A + s_beta * B == r1 * Fsum
    assert s_alpha * A == r2 * (s_beta * B + Fsum)


def test_invalid_ratio_targets():
    with pytest.raises(InvalidRatioTargets):
        ScenarioParams(ratio_band_to_fee=-2.0, ratio_internal_to_external=-1.0).validate()
    with pytest.raises(InvalidRatioTargets):
        calibration_scales(F(1), F(1), F(1), F(1, 100), F(1, 10))


def test_pareto_scale_from_mean():
    # mean 10, shape 2 -> x_m = 5, so draws never fall below 5.
    rng = SplitMix64(3)
    draws = [pareto_draw(rng, 10.0, 2.0) for _ in range(500)]
    assert min(draws) >= 5
    mean = sum(draws, F(0)) / len(draws)
    assert 7 < mean < 20  # heavy tail; loose sanity band around 10


def test_zipf_concentrates_on_center():
    rng = SplitMix64(4)
    draws = [zipf_level(rng, 8, 30.0) for _ in range(200)]
    assert all(d == 4 for d in draws)
    spread = {zipf_level(rng, 8, 1.0) for _ in range(500)}
    assert len(spread) > 3


def test_zipf_tie_prefers_lower_level():
    # With L = 4 the center is 2; distance ties rank level 1 ahead of 3.
    rng = SplitMix64(5)
    draws = [zipf_level(rng, 4, 6.0) for _ in range(4000)]
    count1 = sum(1 for d in draws if d == 1)
    count3 = sum(1 for d in draws if d == 3)
    assert count1 > count3 > 0


def test_sweep_targets_evenly_spaced():
    points = sweep_params(SMALL, "band_to_fee", -2.0, 2.0, 5)
    assert [p.ratio_band_to_fee for p in points] == [-2.0, -1.0, 0.0, 1.0, 2.0]
    assert all(p.seed == SMALL.seed for p in points)
    # Feasibility co-adjustment: at -2 the internal target must sit below.
    assert points[0].ratio_internal_to_external == -2.5
    assert points[-1].ratio_internal_to_external == SMALL.ratio_internal_to_external


def test_sweep_preserves_demands():
    points = sweep_params(SMALL, "internal_to_external", -2.0, 2.0, 3)
    instances = [generate(p) for p in points]
    demands = [tuple(c.demands for c in inst.clients) for inst in instances]
    assert demands[0] == demands[1] == demands[2]
    fees = [tuple(l.per_query_fee for p in inst.providers for l in p.levels) for inst in instances]
    assert fees[0] == fees[1] == fees[2]


def test_sweep_instances_hit_their_targets():
    for point in sweep_params(SMALL, "band_to_fee", -2.0, 2.0, 5):
        band, internal = instance_log_ratios(generate(point))
        assert abs(band - point.ratio_band_to_fee) <= 1e-3
        assert abs(internal - point.ratio_internal_to_external) <= 1e-3


# sha256 of each generated instance's sorted JSON, recorded before the
# generator built its distance, beta and Zipf tables once per instance.
GENERATOR_PIN_BASE = replace(SMALL, seed=11, num_clients=20)
GENERATOR_PINS = {
    "one-level": (
        dict(levels_per_provider=1),
        "34d387f80f435941443f0e052b7aeca1b00a00cdc7acfcc188c8526eb0cbf7d0",
    ),
    "five-levels": (
        dict(levels_per_provider=5),
        "ecdd5ef4b2ead878f698811230a852e919a9d3296e84f173eb00fbfac1e8cd02",
    ),
    "ten-dcs-120-clients": (
        dict(num_data_centers=10, num_clients=120),
        "f6e0e402712d73991ede7054b797856a6f53a1baf0b0dba86ef308c7591962c2",
    ),
    "rate-2.5": (
        dict(rate_per_gigameter="2.5"),
        "88bf723f9a53cd2305c33284ba5b5f2563dbf0b2035c0b4990ee744069b26ba7",
    ),
    "avg-1.5-providers": (
        dict(avg_providers_per_client=1.5),
        "e58b47ce68233f033747d392417beb4ae6d629034139409a55c0fdb64de9c404",
    ),
    "pareto-shape-3": (
        dict(pareto_shape=3.0),
        "2155fa94d2235beb36a6e72306074a6b07a2611576377a15b1b194b1f128c91f",
    ),
    "zipf-shape-0.5": (
        dict(zipf_shape=0.5),
        "08120e57ecbc2e022f6959bc839a203754c12139e508a3aa5f03d99fdf4dacf1",
    ),
    "ratio-targets-1.5-0.5": (
        dict(ratio_band_to_fee=1.5, ratio_internal_to_external=0.5),
        "a35e84ab7ddc7109fc1b2edde7dfe6da59848da77a39811a13fcf3bb29c00609",
    ),
}


@pytest.mark.parametrize("name", list(GENERATOR_PINS))
def test_generated_instance_bytes_pinned(name):
    changes, digest = GENERATOR_PINS[name]
    inst = generate(replace(GENERATOR_PIN_BASE, **changes))
    text = json.dumps(instance_to_json(inst), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_five_levels_center_on_level_two():
    # round(5 / 2) is 2 under round-half-even; the tie between 1 and 3 goes low.
    assert zipf_level(SplitMix64(1), 5, 60.0) == 2


@pytest.mark.parametrize("avg", [1e-300, 1e-6])
def test_vanishing_demand_probability_is_refused(avg):
    # p = avg / 20 empties a client's round with probability above 0.999.
    with pytest.raises(DatamarketError, match="avg_providers_per_client is too small"):
        replace(SMALL, num_providers=20, avg_providers_per_client=avg).validate()


def test_small_demand_probability_still_generates():
    inst = generate(replace(SMALL, num_providers=20, avg_providers_per_client=0.01))
    assert all(c.demands for c in inst.clients)


@pytest.mark.parametrize(
    "levels, shape",
    # At (1000, -102.7) every weight is finite but their sum, which the draw scales by, is not.
    [(3, 2000.0), (3, -2000.0), (1000, -102.7)],
)
def test_overflowing_zipf_weights_are_refused(levels, shape):
    with pytest.raises(DatamarketError, match=f"zipf_shape .* of {levels} levels"):
        replace(SMALL, levels_per_provider=levels, zipf_shape=shape).validate()


@pytest.mark.parametrize("shape", [2000.0, -2000.0])
def test_one_level_generates_under_any_finite_zipf_shape(shape):
    inst = generate(replace(SMALL, levels_per_provider=1, zipf_shape=shape))
    assert {q for c in inst.clients for _, q in c.demands} == {1}


@pytest.mark.parametrize(
    "changes, reason",
    [
        (dict(levels_per_provider=MAX_LEVELS + 1), "levels_per_provider must be at most 1024"),
        (dict(levels_per_provider=10**10), "levels_per_provider must be at most 1024"),
        (
            dict(num_providers=1, num_clients=MAX_CLIENT_PROVIDER_PAIRS + 1),
            "num_clients * num_providers must be at most 1,000,000",
        ),
        (dict(num_clients=10**8), "num_clients * num_providers must be at most 1,000,000"),
        (
            dict(num_clients=1, num_providers=MAX_PROVIDER_LEVELS + 1, levels_per_provider=1),
            "num_providers * levels_per_provider must be at most 100,000",
        ),
        (
            # 10,000 clients at 1,000 expected rounds each: 10 M draws.
            dict(num_clients=10_000, num_providers=1, avg_providers_per_client=0.001),
            "avg_providers_per_client is too small for num_clients * num_providers:"
            " the demand draws would pass 2,000,000 on average",
        ),
    ],
)
def test_sizes_past_a_ceiling_are_refused(changes, reason):
    # Refused by validate(), before anything is allocated.
    with pytest.raises(DatamarketError, match=f"^{re.escape(reason)}$"):
        replace(SMALL, **changes).validate()


@pytest.mark.parametrize(
    "changes",
    [
        dict(levels_per_provider=MAX_LEVELS),
        dict(num_providers=6, num_clients=MAX_CLIENT_PROVIDER_PAIRS // 6),
        dict(num_providers=MAX_PROVIDER_LEVELS // 8, num_clients=1, levels_per_provider=8),
        # The paper default at the top of the client ladder.
        dict(num_data_centers=10, num_providers=20, num_clients=10_000, levels_per_provider=8),
    ],
)
def test_sizes_at_a_ceiling_are_accepted(changes):
    replace(SMALL, **changes).validate()


@pytest.mark.parametrize(
    "mean, reason",
    [
        (-1.0, "^pareto_mean must not be negative$"),
        (1e308, "^pareto_mean 1e\\+308 is too large: the largest Pareto draw overflows a float$"),
    ],
)
def test_pareto_means_that_cannot_draw_are_refused(mean, reason):
    with pytest.raises(DatamarketError, match=reason):
        replace(SMALL, pareto_mean=mean).validate()


class SmallestUniform:
    def unit_open(self):
        return 2.0**-53


@pytest.mark.parametrize("shape", [2.0, 3.0, 1.5])
def test_largest_accepted_pareto_mean_draws_a_finite_fee(shape):
    def accepted(mean):
        try:
            replace(SMALL, pareto_mean=mean, pareto_shape=shape).validate()
        except DatamarketError:
            return False
        return True

    lo, hi = 1.0, 1e308
    assert accepted(lo) and not accepted(hi)
    while math.nextafter(lo, hi) < hi:
        mid = lo + (hi - lo) / 2
        lo, hi = (mid, hi) if accepted(mid) else (lo, mid)
    assert math.isfinite(pareto_draw(SmallestUniform(), lo, shape))
    with pytest.raises(OverflowError):
        pareto_draw(SmallestUniform(), hi, shape)


def test_zero_pareto_mean_still_generates():
    inst = generate(replace(SMALL, pareto_mean=0.0))
    assert validate_instance(inst).ok
