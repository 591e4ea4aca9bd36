"""Continued-fraction machinery for the threshold constructions.

The variable-to-variable construction needs denominators T such that T*x sits
unusually close to an integer, where x = -log_n p_m.  Those T are exactly the
best-approximation denominators of x, and they come out of the continued
fraction expansion.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction
from typing import Iterator

from .errors import InfeasibleError, InputError
from .source_model import Profile, SourceModel, linear_form

INTEGRALITY_TOL = 1e-12
DEFAULT_RATIONAL_TOL = 1e-9


def frac(x: float) -> float:
    """Fractional part of x, in [0, 1)."""
    return x - math.floor(x)


def dist_to_int(x: float) -> float:
    """Distance from x to the nearest integer, in [0, 1/2]."""
    f = frac(x)
    return min(f, 1.0 - f)


def continued_fraction(x: float, max_terms: int = 64) -> list[int]:
    """Partial quotients [a0; a1, a2, ...] of x.

    Stops early when the remainder is exhausted at float precision, which is
    the effective rational cutoff for binary64 inputs.
    """
    terms: list[int] = []
    value = x
    for _ in range(max_terms):
        a = math.floor(value)
        terms.append(a)
        rem = value - a
        # 1/rem amplifies float error by rem^-2; stop once rem is pure noise.
        if rem < 1e-12:
            break
        value = 1.0 / rem
    return terms


def convergents(x: float, max_terms: int = 64) -> list[tuple[int, int]]:
    """Convergent fractions (p, q) of x from its continued fraction."""
    result = []
    p_prev, q_prev = 0, 1
    p_cur, q_cur = 1, 0
    for a in continued_fraction(x, max_terms):
        p_cur, p_prev = a * p_cur + p_prev, p_cur
        q_cur, q_prev = a * q_cur + q_prev, q_cur
        result.append((p_cur, q_cur))
    return result


def exact_log(m: int, n: int) -> Fraction | None:
    """log_n m as p/q with m**q == n**p, or None when it is irrational.

    In lowest terms n is then a q-th power, so q <= log2 n and only a few
    small powers are compared, in integers.
    """
    x = math.log(m) / math.log(n)
    for q in range(1, n.bit_length() + 1):
        p = round(q * x)
        if m**q == n**p:
            return Fraction(p, q)
    return None


def log_bounds(m: int, n: int, digits: int = 50) -> tuple[Fraction, Fraction]:
    """Rational bounds lo < log_n m < hi, about `digits` digits apart.

    `Decimal.ln` is correctly rounded, so the quotient of the two logarithms
    is within a few units of its last digit; the bounds allow a thousand.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        x = Fraction(decimal.Decimal(m).ln() / decimal.Decimal(n).ln())
    err = abs(x) / 10 ** (digits - 3)
    return x - err, x + err


def interval_convergents(
    lo: Fraction, hi: Fraction
) -> Iterator[tuple[int, int]]:
    """Convergents (p, q) that every number in [lo, hi] shares, in order.

    Expands both ends and stops where their partial quotients part, so
    each pair is a convergent of any number in the interval; lo == hi
    yields every convergent of that rational, ending with it.
    """
    p_prev, q_prev, p_cur, q_cur = 0, 1, 1, 0
    while True:
        a = math.floor(lo)
        if math.floor(hi) != a:
            return
        p_prev, q_prev, p_cur, q_cur = (
            p_cur, q_cur, a * p_cur + p_prev, a * q_cur + q_prev
        )
        yield p_cur, q_cur
        if lo == a:
            return
        lo, hi = 1 / (hi - a), 1 / (lo - a)


def power_fits(m: int, x: int, n: int, length: int) -> bool:
    """Whether m**x <= n**length, decided without building either power."""
    exact = exact_log(m, n)
    if exact is not None:
        return x * exact <= length
    digits = 40 + 2 * len(str(max(x, length)))
    lo, hi = log_bounds(m, n, digits)
    if x * hi <= length:
        return True
    if x * lo > length:
        return False
    return m**x <= n**length


def best_approx_denominators(x: float, q_max: int) -> list[int]:
    """Denominators q <= q_max with dist_to_int(q*x) strictly below all q' < q.

    These are the continued-fraction convergent denominators of x (q=1 is
    always included, vacuously best).  Raises for x within INTEGRALITY_TOL of
    an integer, where every q already gives distance ~0.
    """
    if q_max < 1:
        raise InputError(f"q_max must be >= 1, got {q_max}")
    if dist_to_int(x) <= INTEGRALITY_TOL:
        raise InputError(
            f"x={x!r} is an integer within tolerance; "
            "every denominator is degenerate-best"
        )
    out: list[int] = []
    best = math.inf
    for _, q in convergents(x):
        if q < 1 or q > q_max:
            if q > q_max:
                break
            continue
        err = dist_to_int(q * x)
        if q == 1 or err < best:
            if not out or q != out[-1]:
                out.append(q)
            best = min(best, err)
    return out


def find_shift(
    model: SourceModel, profile: Profile, T: int, side: str = "low"
) -> tuple[int, float]:
    """Smallest last-coordinate shift putting the profile's linear form near
    an integer.

    Scans k' in [0, T); returns (k', fractional part after the shift) with
    frac <= 2/T for side="low" or 1-frac <= 2/T for side="high".  When T is a
    best-approximation denominator of d_m such a shift always exists.
    """
    if side not in ("low", "high"):
        raise InputError(f"side must be 'low' or 'high', got {side!r}")
    if T < 1:
        raise InputError(f"T must be >= 1, got {T}")
    base = linear_form(model, profile)
    d_last = model.d[-1]
    bound = 2.0 / T
    for shift in range(T):
        f = frac(base + shift * d_last)
        if side == "low" and f <= bound:
            return shift, f
        if side == "high" and 1.0 - f <= bound:
            return shift, f
    raise InfeasibleError(
        f"no shift in [0, {T}) brings the {side} fractional part within 2/T"
    )


def denominator_of_rational_form(
    values, max_denominator: int = 10_000, tol: float = DEFAULT_RATIONAL_TOL
) -> int | None:
    """Least common denominator of `values` if all are rational at `tol`.

    Returns None as soon as one value has no fraction with denominator up to
    `max_denominator` within `tol`.  Used to route sources whose digit costs
    are all rational into the exact-hit construction.
    """
    lcm = 1
    for x in values:
        approx = Fraction(x).limit_denominator(max_denominator)
        if abs(float(approx) - x) > tol * max(1.0, abs(x)):
            return None
        lcm = lcm * approx.denominator // math.gcd(lcm, approx.denominator)
    return lcm
