from __future__ import annotations

from fractions import Fraction

import pytest

from datamarket.cities import CITIES, DC_STATES, cities_in_state
from datamarket.model import split_by_provider, validate_instance
from datamarket.scenario import (
    InvalidRatioTargets,
    ScenarioParams,
    calibration_scales,
    generate,
    pareto_draw,
    sweep_params,
    zipf_level,
)
from datamarket.rng import SplitMix64
from oracles import instance_log_ratios

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
