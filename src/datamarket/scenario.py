"""Deterministic synthetic case-study generator.

Geography: one data center per listed state, sited at the state's largest
city; providers round-robin over the second and third largest cities of
those states; clients sampled from the city table with probability
proportional to population. Demands: each (client, provider) pair is
included independently so the expected request size matches
avg_providers_per_client (clients with no demands are redrawn); the level
requested per demand is Zipf-distributed around the middle level. Fees per
provider are sorted Pareto draws. Transfer costs are haversine distance
times the rate, rescaled so the aggregate bandwidth-to-fee and
internal-to-external cost ratios hit the configured log10 targets.

Determinism: generate() is a pure function of its params. One SplitMix64
stream seeded by params.seed is consumed in this exact order:
  1. data centers       (no draws; deterministic siting)
  2. providers          (no draws; deterministic round-robin)
  3. clients            (one weighted city draw each)
  4. demands            (per client: one uniform per provider per attempt,
                         repeating the full round while the set is empty)
  5. levels             (one uniform per demanded (client, provider), in
                         client then provider order)
  6. fees               (levels_per_provider uniforms per provider)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from datamarket.cities import CITIES, DC_STATES, cities_in_state
from datamarket.model import (
    MAX_CLIENT_PROVIDER_PAIRS,
    MAX_LEVELS,
    Client,
    DataCenter,
    DatamarketError,
    ExecCostModel,
    MarketInstance,
    Provider,
    QualityLevel,
)
from datamarket.numeric import MICROS, QUANTUM, distance_grid, quantize, to_rational
from datamarket.rng import SplitMix64

ZERO = Fraction(0)

# Size ceilings, checked before anything is allocated. They bound the level
# menu and the (client, provider) pairs (model's ceilings on every
# instance), the expected demand draws (the pairs times a client's expected
# rounds) and the provider-by-level fee table; the paper default up to
# C=10000 (200,000 pairs and draws) sits well inside.
MAX_DEMAND_DRAWS = 2_000_000
MAX_PROVIDER_LEVELS = 100_000

# The ratio knobs a sweep scans, each with the ScenarioParams field it sets.
SWEEP_KNOBS = {
    "band_to_fee": "ratio_band_to_fee",
    "internal_to_external": "ratio_internal_to_external",
}


class InvalidRatioTargets(DatamarketError):
    """The two ratio targets admit no positive calibration scales."""


@dataclass(frozen=True)
class ScenarioParams:
    seed: int = 0
    num_data_centers: int = 10
    num_providers: int = 20
    num_clients: int = 40
    levels_per_provider: int = 8
    # Expected providers per client request; None means half the providers.
    avg_providers_per_client: float | None = None
    zipf_shape: float = 30.0
    pareto_mean: float = 10.0
    pareto_shape: float = 2.0
    rate_per_gigameter: str | Fraction = "1"
    ratio_band_to_fee: float = -0.5  # target log10((alpha+beta)/f)
    ratio_internal_to_external: float = -1.0  # target log10(alpha/(beta+f))

    def demand_probability(self) -> float:
        avg = self.avg_providers_per_client
        if avg is None:
            return 0.5
        return avg / self.num_providers

    def validate(self) -> None:
        # NaN compares false with every bound, so it slips past range checks.
        for name in (
            "avg_providers_per_client",
            "zipf_shape",
            "pareto_mean",
            "pareto_shape",
            "ratio_band_to_fee",
            "ratio_internal_to_external",
        ):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise DatamarketError(f"{name} must be finite")
        # Calibration targets 10**ratio, which overflows a float above ~308.
        for name in ("ratio_band_to_fee", "ratio_internal_to_external"):
            try:
                10.0 ** getattr(self, name)
            except OverflowError:
                raise DatamarketError(
                    f"{name} is too large: 10**{name} overflows a float"
                ) from None
        if not 1 <= self.num_data_centers <= len(DC_STATES):
            raise DatamarketError(f"num_data_centers must be in 1..{len(DC_STATES)}")
        for name in ("num_providers", "num_clients", "levels_per_provider"):
            if getattr(self, name) < 1:
                raise DatamarketError(f"{name} must be positive")
        if self.levels_per_provider > MAX_LEVELS:
            raise DatamarketError(f"levels_per_provider must be at most {MAX_LEVELS}")
        for first, second, ceiling in (
            ("num_clients", "num_providers", MAX_CLIENT_PROVIDER_PAIRS),
            ("num_providers", "levels_per_provider", MAX_PROVIDER_LEVELS),
        ):
            if getattr(self, first) * getattr(self, second) > ceiling:
                raise DatamarketError(f"{first} * {second} must be at most {ceiling:,}")
        prob = self.demand_probability()
        if not 0 < prob <= 1:
            raise DatamarketError("avg_providers_per_client must be in (0, num_providers]")
        # A client's round of draws is redrawn while it comes up empty.
        nonempty = 1 - (1 - prob) ** self.num_providers
        if nonempty < 1e-3:
            raise DatamarketError(
                "avg_providers_per_client is too small: a client would need more than"
                " 1000 rounds of demand draws on average"
            )
        if self.num_clients * self.num_providers / nonempty > MAX_DEMAND_DRAWS:
            raise DatamarketError(
                "avg_providers_per_client is too small for num_clients * num_providers:"
                f" the demand draws would pass {MAX_DEMAND_DRAWS:,} on average"
            )
        try:
            zipf_total = sum(zipf_table(self.levels_per_provider, self.zipf_shape)[1])
        except (OverflowError, ZeroDivisionError):
            zipf_total = math.inf
        if not math.isfinite(zipf_total):
            raise DatamarketError(
                f"zipf_shape {self.zipf_shape} overflows the Zipf weights of"
                f" {self.levels_per_provider} levels"
            )
        if self.pareto_shape <= 1:
            raise DatamarketError("pareto_shape must exceed 1 for a finite mean")
        if self.pareto_mean < 0:
            raise DatamarketError("pareto_mean must not be negative")
        # The largest draw is pareto_draw's at the smallest uniform, 2**-53.
        x_m = self.pareto_mean * (self.pareto_shape - 1) / self.pareto_shape
        if not math.isfinite(x_m / (2.0**-53) ** (1.0 / self.pareto_shape)):
            raise DatamarketError(
                f"pareto_mean {self.pareto_mean} is too large: the largest Pareto draw"
                " overflows a float"
            )
        if self.ratio_band_to_fee <= self.ratio_internal_to_external:
            raise InvalidRatioTargets(
                "ratio_band_to_fee must exceed ratio_internal_to_external"
                " (alpha <= alpha+beta forces the first ratio above the second)"
            )


def calibration_scales(
    alpha_sum: Fraction, beta_sum: Fraction, fee_sum: Fraction, r1: Fraction, r2: Fraction
) -> tuple[Fraction, Fraction]:
    """Scales (s_alpha, s_beta) solving
    s_alpha*A + s_beta*B = r1*F  and  s_alpha*A = r2*(s_beta*B + F)."""
    if alpha_sum <= 0 or beta_sum <= 0 or fee_sum <= 0:
        raise InvalidRatioTargets("calibration needs positive raw cost and fee sums")
    s_beta = fee_sum * (r1 - r2) / (beta_sum * (1 + r2))
    s_alpha = r2 * (s_beta * beta_sum + fee_sum) / alpha_sum
    if s_alpha <= 0 or s_beta <= 0:
        raise InvalidRatioTargets(f"non-positive calibration scales ({s_alpha}, {s_beta})")
    return s_alpha, s_beta


def zipf_table(num_levels: int, shape: float) -> tuple[list[int], list[float]]:
    """Levels ranked by distance from round(L/2) (round-half-even), ties
    toward the lower level, and the weight r^-shape of each rank r: a level
    draw is ranked[rng.weighted_index(weights)]."""
    center = round(num_levels / 2)
    ranked = sorted(range(1, num_levels + 1), key=lambda l: (abs(l - center), l))
    weights = [1.0 / (r**shape) for r in range(1, num_levels + 1)]
    return ranked, weights


def pareto_draw(rng: SplitMix64, mean: float, shape: float) -> Fraction:
    """Quantized Pareto draw with the given mean: scale x_m = mean*(a-1)/a."""
    x_m = mean * (shape - 1) / shape
    u = rng.unit_open()
    return quantize(x_m / (u ** (1.0 / shape)))


def generate(params: ScenarioParams) -> MarketInstance:
    """Build the synthetic market instance for the given parameters."""
    params.validate()
    rng = SplitMix64(params.seed)
    rate = to_rational(params.rate_per_gigameter)

    # Phase 1: data centers, largest city of each listed state.
    states = DC_STATES[: params.num_data_centers]
    dc_cities = [cities_in_state(s)[0] for s in states]
    data_centers = tuple(
        DataCenter(id=f"dc{i + 1}", location=(c.lat, c.lon)) for i, c in enumerate(dc_cities)
    )

    # Phase 2: providers, round-robin over second and third cities.
    provider_cities = []
    for i in range(params.num_providers):
        state = states[i % len(states)]
        rank = 1 + (i // len(states)) % 2  # index 1 = second city, 2 = third
        provider_cities.append(cities_in_state(state)[rank])

    # Phase 3: client cities, population-weighted.
    weights = [float(c.population) for c in CITIES]
    client_cities = [CITIES[rng.weighted_index(weights)] for _ in range(params.num_clients)]

    # Phase 4: demand sets.
    prob = params.demand_probability()
    demand_sets: list[list[int]] = []
    for _ in range(params.num_clients):
        chosen: list[int] = []
        while not chosen:
            chosen = [p for p in range(params.num_providers) if rng.random() < prob]
        demand_sets.append(chosen)

    # Phase 5: demanded levels.
    levels = params.levels_per_provider
    ranked, zipf_weights = zipf_table(levels, params.zipf_shape)
    ranked_quality = [Fraction(l) for l in ranked]
    demand_levels = [
        [ranked_quality[rng.weighted_index(zipf_weights)] for _ in chosen]
        for chosen in demand_sets
    ]

    # Phase 6: fees, sorted ascending with strictness enforced at the quantum.
    fee_table: list[list[Fraction]] = []
    for _ in range(params.num_providers):
        draws = sorted(
            pareto_draw(rng, params.pareto_mean, params.pareto_shape) for _ in range(levels)
        )
        for k in range(1, levels):
            if draws[k] <= draws[k - 1]:
                draws[k] = draws[k - 1] + QUANTUM
        fee_table.append(draws)

    # Raw distance costs in micro-units (so their sums are exact), then
    # calibration to the ratio targets.
    dc_points = [(c.lat, c.lon) for c in dc_cities]
    beta_raw = distance_grid([(c.lat, c.lon) for c in provider_cities], dc_points, rate)
    alpha_raw = distance_grid(dc_points, [(c.lat, c.lon) for c in client_cities], rate)
    alpha_sum = Fraction(sum(map(sum, alpha_raw)), MICROS)
    beta_sum = Fraction(sum(map(sum, beta_raw)), MICROS)
    fee_sum = sum((f for fees in fee_table for f in fees), ZERO)
    r1 = quantize(10.0**params.ratio_band_to_fee)
    r2 = quantize(10.0**params.ratio_internal_to_external)
    s_alpha, s_beta = calibration_scales(alpha_sum, beta_sum, fee_sum, r1, r2)

    providers = tuple(
        Provider(
            id=f"p{p + 1}",
            levels=tuple(
                QualityLevel(index=l + 1, quality=Fraction(l + 1), per_query_fee=fee_table[p][l])
                for l in range(levels)
            ),
            oper_cost=tuple(
                (quantize(s_beta * Fraction(b, MICROS)),) * levels for b in beta_raw[p]
            ),
        )
        for p in range(params.num_providers)
    )
    clients = tuple(
        Client(
            id=f"c{c + 1}",
            demands=tuple(
                (f"p{p + 1}", level) for p, level in zip(demand_sets[c], demand_levels[c])
            ),
            location=(client_cities[c].lat, client_cities[c].lon),
        )
        for c in range(params.num_clients)
    )
    return MarketInstance(
        providers=providers,
        data_centers=data_centers,
        clients=clients,
        exec_cost=ExecCostModel(
            mode="distance",
            level_independent=True,
            rate_per_gigameter=quantize(s_alpha * rate),
        ),
        contracting="per_query",
    )


def sweep_params(
    base: ScenarioParams, knob: str, start: float, stop: float, steps: int
) -> list[ScenarioParams]:
    """Evenly spaced log10 ratio targets for one knob, seed-stable.

    The non-swept ratio keeps its base value whenever feasible; when the
    swept target would cross it (the targets must satisfy band_to_fee >
    internal_to_external), it shifts along, preserving the base gap.
    """
    if steps < 2:
        raise DatamarketError("steps must be at least 2")
    if knob not in SWEEP_KNOBS:
        raise DatamarketError(f"unknown knob {knob!r}")
    base.validate()
    gap = base.ratio_band_to_fee - base.ratio_internal_to_external
    points = []
    for k in range(steps):
        target = start + k * (stop - start) / (steps - 1)
        if knob == "band_to_fee":
            band, internal = target, min(base.ratio_internal_to_external, target - gap)
        else:
            band, internal = max(base.ratio_band_to_fee, target + gap), target
        point = replace(base, ratio_band_to_fee=band, ratio_internal_to_external=internal)
        point.validate()
        points.append(point)
    return points
