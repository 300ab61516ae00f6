"""Shared numeric conventions: time comparisons, grouping and bisection.

All times are 64-bit floats compared with a fixed absolute tolerance:
``a <= b`` means ``a <= b + TIME_EPS`` and ``a == b`` means
``|a - b| <= TIME_EPS``.
"""

import math

from .errors import PursuitError

TIME_EPS = 1e-9


def teq(a: float, b: float) -> bool:
    return abs(a - b) <= TIME_EPS


def tle(a: float, b: float) -> bool:
    return a <= b + TIME_EPS


def tlt(a: float, b: float) -> bool:
    return a < b - TIME_EPS


def group_times(pairs):
    """Group (time, key) pairs whose times agree within TIME_EPS.

    Returns a list of (representative_time, [keys...]) in increasing time
    order. The representative is the first time seen in the group.
    """
    out = []
    for t, key in sorted(pairs):
        if out and teq(out[-1][0], t):
            out[-1][1].append(key)
        else:
            out.append((t, [key]))
    return out


def json_number(value, kind=float):
    """``kind(value)`` when ``value`` is a JSON number of that kind, else
    None: ``int`` takes an integer, ``float`` any number a float holds.
    Types are exact, as in ``SolveResult.from_json``: True is no number here,
    and "7" is a string."""
    if type(value) is int or (kind is float and type(value) is float):
        try:
            return kind(value)
        except OverflowError:  # an int too large for a float
            pass
    return None


def shape_of(value) -> str:
    """A loaded value as an error names it: a list by length, else by type."""
    return f"a list of {len(value)} values" if type(value) is list else f"a {type(value).__name__}"


def check_bracket(lo: float, hi: float, tol: float) -> None:
    """Raise PursuitError unless ``tol > 0`` and both bracket ends are finite."""
    if not tol > 0:  # also rejects NaN
        raise PursuitError(f"bisection tolerance must be > 0, got {tol}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise PursuitError(f"bisection bracket ends must be finite, got [{lo}, {hi}]")


def bisect_bracket(flips, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Narrow the bracket of a predicate ``flips`` that is false at ``lo``
    and true at ``hi`` until it is at most ``tol`` wide or its ends are
    adjacent floats; returns the final ``(lo, hi)``. Raises PursuitError
    as ``check_bracket`` does."""
    check_bracket(lo, hi, tol)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent floats: a tol below their spacing ends here
            break
        if flips(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def bisect_predicted(flips, guess, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """``bisect_bracket(flips, lo, hi, tol)``, walked with the cheaper
    ``guess`` in place of ``flips``; each end of the final bracket that the
    walk moved is then confirmed by ``flips``. If ``flips`` is monotone,
    confirmed ends prove every guess right, so the bracket is plain
    bisection's bit for bit. If a confirmation fails, plain bisection of
    ``flips`` runs instead (a memoising ``flips`` pays nothing twice).
    Either way ``flips`` is false at the returned ``lo`` and true at ``hi``.
    Raises PursuitError as ``check_bracket`` does, before any call."""
    new_lo, new_hi = bisect_bracket(guess, lo, hi, tol)
    if (new_lo == lo or not flips(new_lo)) and (new_hi == hi or flips(new_hi)):
        return new_lo, new_hi
    return bisect_bracket(flips, lo, hi, tol)
