"""Exact money arithmetic and geographic distances.

Every monetary quantity in this package is a multiple of the 1e-6 quantum.
External decimal strings are quantized on the way in and formatted back to
6-place decimal strings on the way out. In between, one rule holds: the
instance and every reported total are fractions.Fraction; distance costs,
everything in a ProviderSubproblem (operation costs, fees and execution
costs) and everything the solvers derive from it are int micro-units
(value * MICROS). split_by_provider is where money enters that form;
solve_single_dc's objective, to_uflp's output and evaluate_cost are where
it leaves. The linear programs take whatever exact numbers they are given:
Datum's mu1 anticipation term makes its transformed costs exact Fractions
of micro-units (a product with a quantized weight).

Money rounds by one rule: once, to the nearest multiple of 1e-6, ties to
even. quantize, format_money and pair_micros round a Fraction with Python's
exact round(); to_rational quantizes a decimal in one decimal context wide
enough for MAX_INTEGER_DIGITS integer digits, the quantum places and a
carry. to_micros converts a Fraction to micro-units and refuses any value
that is not a whole number of quanta. Distance costs are the exact product
of the float haversine and the rate, rounded by that rule; pair_micros
reaches most of them through a float route that proves its estimate rounds
to the same int.

The haversine comes in two steps. The per-point step (geo_point) turns a
(latitude, longitude) into radians and the cosine of the latitude; the
per-pair step (point_gigameters, and pair_micros, which rounds its product
with the rate) does the rest. pair_micros is the one kernel that turns a
distance into micro-units: distance_grid runs the per-point step once per
point and pair_micros once per cell, and a caller that prices single pairs
calls pair_micros on geo_points itself. There are no per-pair wrappers.
"""

from __future__ import annotations

from decimal import ROUND_HALF_EVEN, Context, Decimal, InvalidOperation
from fractions import Fraction
from math import asin, cos, inf, radians, sin, sqrt
from typing import Sequence

QUANTUM_PLACES = 6
QUANTUM = Fraction(1, 10**QUANTUM_PLACES)
MICROS = 10**QUANTUM_PLACES

# The most integer digits a decimal value may have: every finite float is
# below 1e309. Larger values are refused rather than quantized.
MAX_INTEGER_DIGITS = 309

# to_rational's quantum, and a context with room for MAX_INTEGER_DIGITS
# integer digits, the quantum places and a carry.
_DECIMAL_QUANTUM = Decimal(1).scaleb(-QUANTUM_PLACES)
_DECIMAL_CONTEXT = Context(prec=MAX_INTEGER_DIGITS + QUANTUM_PLACES + 1, rounding=ROUND_HALF_EVEN)

EARTH_RADIUS_KM = 6371.0

# pair_micros's float route: the relative error allowance 2**-48, eight times
# the route's bound of 2**-51, and the products it serves, those below 2**47
# micro-units, where that allowance stays under half a micro.
_FLOAT_ROUTE_LIMIT = 2.0**47
_FLOAT_ROUTE_SLACK = 2.0**-48


def to_rational(value: str | int | float | Fraction | Decimal) -> Fraction:
    """Convert an external numeric value to an exact Fraction.

    Strings and floats are read as decimals and quantized to 1e-6
    (round-half-even); a nonzero value with more than MAX_INTEGER_DIGITS
    integer digits, an infinity or a NaN is refused. Ints and Fractions pass through
    unchanged. A bool is refused, although Python counts it as an int.
    """
    if isinstance(value, bool):
        raise TypeError("cannot convert bool to a rational")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        value = repr(value)
    if isinstance(value, (str, Decimal)):
        try:
            dec = Decimal(value)
        except InvalidOperation as exc:
            raise ValueError(f"not a decimal number: {value!r}") from exc
        if not dec.is_finite():
            raise ValueError(f"not a finite decimal number: {value!r}")
        if dec and dec.adjusted() + 1 > MAX_INTEGER_DIGITS:
            raise ValueError(
                f"decimal number too large: {value!r} has more than"
                f" {MAX_INTEGER_DIGITS} integer digits"
            )
        return Fraction(dec.quantize(_DECIMAL_QUANTUM, context=_DECIMAL_CONTEXT))
    raise TypeError(f"cannot convert {type(value).__name__} to a rational")


def to_micros(value: Fraction | int) -> int:
    """An exact money value as a whole number of 1e-6 quanta.

    Raises ValueError for a value that is not a multiple of 1e-6; nothing
    is rounded.
    """
    num, den = value.numerator, value.denominator
    if den == 1:
        return num * MICROS
    micros, rem = divmod(num * MICROS, den)
    if rem:
        raise ValueError(f"not a multiple of 1e-6: {value}")
    return micros


def quantize(value: Fraction | float) -> Fraction:
    """Round to the nearest multiple of 1e-6, ties to even."""
    return Fraction(round(Fraction(value) * MICROS), MICROS)


def format_money(value: Fraction) -> str:
    """Render a rational as a 6-place decimal string.

    Values are expected to be multiples of 1e-6 (all costs in this package
    are); anything finer is rounded to one, ties to even.
    """
    units = round(value * MICROS)
    sign = "-" if units < 0 else ""
    units = abs(units)
    return f"{sign}{units // MICROS}.{units % MICROS:0{QUANTUM_PLACES}d}"


def geo_point(lat: float, lon: float) -> tuple[float, float, float]:
    """The haversine's per-point step: latitude and longitude in radians,
    and the cosine of the latitude."""
    phi = radians(lat)
    return phi, radians(lon), cos(phi)


def point_gigameters(p: tuple[float, float, float], q: tuple[float, float, float]) -> float:
    """The haversine's per-pair step: great-circle distance between two
    geo_points, in gigameters (1e6 km)."""
    phi1, lam1, cos1 = p
    phi2, lam2, cos2 = q
    a = sin((phi2 - phi1) / 2) ** 2 + cos1 * cos2 * sin((lam2 - lam1) / 2) ** 2
    km = 2 * EARTH_RADIUS_KM * asin(sqrt(a))
    return km / 1e6


def pair_micros(
    p: tuple[float, float, float], q: tuple[float, float, float], rate_num: int, rate_den: int
) -> int:
    """Distance-proportional transfer cost between two geo_points in
    micro-units: haversine gigameters (a float, so an exact ratio of ints)
    times the rate rate_num / rate_den, rounded once to a whole micro-unit,
    ties to even.

    Two routes give that one int. The float route computes
    y = gigameters * (rate_num * MICROS / rate_den); the int division rounds
    correctly, so y is within y * 2**-51 of the exact product (within
    2**-1073 where a step underflows to a subnormal float). When
    |y - round(y)| < 0.5 - y * 2**-48, no half-micro lies within that error
    of y, so round(y) is the exact rounding and is returned. Every other
    case (a tie or near-tie, a product of 2**47 micro-units or more, a
    scale too large for a float, a negative product) takes the exact int
    route: round() of the exact ratio of ints.
    """
    gm = point_gigameters(p, q)
    try:
        y = gm * (rate_num * MICROS / rate_den)
    except OverflowError:
        y = inf
    if 0.0 <= y < _FLOAT_ROUTE_LIMIT:
        micros = round(y)
        if abs(y - micros) < 0.5 - y * _FLOAT_ROUTE_SLACK:
            return micros
    num, den = gm.as_integer_ratio()
    return round(Fraction(num * rate_num * MICROS, den * rate_den))


def distance_grid(
    origins: Sequence[tuple[float, float]],
    targets: Sequence[tuple[float, float]],
    rate_per_gigameter: Fraction,
) -> list[list[int]]:
    """pair_micros of every (origin, target) pair of (latitude, longitude)
    points, [origin][target]: the per-point step once per point, the
    per-pair step once per cell."""
    num, den = rate_per_gigameter.numerator, rate_per_gigameter.denominator
    points = [geo_point(*t) for t in targets]
    return [
        [pair_micros(p, q, num, den) for q in points]
        for p in (geo_point(*o) for o in origins)
    ]

