"""Shared numeric conventions and the CLI's JSON writer.

All times are 64-bit floats compared with a fixed absolute tolerance:
``a <= b`` means ``a <= b + TIME_EPS`` and ``a == b`` means
``|a - b| <= TIME_EPS``.
"""

import functools
import json
import math
from itertools import chain, repeat

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


# An encoder never writes a raw control character (ensure_ascii escapes
# them), so "\x00" and "\x01" can only be separators the writer put there.
_CONTAINERS = (list, tuple, dict)


@functools.cache
def _encoder(item_separator: str):
    """The C-accelerated ``encode`` of a compact encoder with this item
    separator (the C encoder handles any separators, but not ``indent``)."""
    return json.JSONEncoder(separators=(item_separator, ": ")).encode


def _all_scalars(values) -> bool:
    return not any(issubclass(kind, _CONTAINERS) for kind in {*map(type, values)})


def _scalar_texts(values) -> list[str]:
    """The JSON text of each scalar in the non-empty sequence ``values``."""
    return _encoder("\x00")(values)[1:-1].split("\x00")


def _key_texts(obj: dict) -> list[str]:
    """``'"key": '`` for each key of ``obj``, converted as ``json.dumps`` does."""
    return [text[:-1] for text in _scalar_texts(dict.fromkeys(obj, 0))]


def dumps_indented(obj) -> str:
    """Exactly the text ``json.dumps`` writes for ``obj`` with an indent of
    2, built from pieces that the C encoder writes, so several times faster
    on large payloads."""
    return _write(obj, 0)


def _write(obj, level: int) -> str:
    if isinstance(obj, dict):
        values, brackets = list(obj.values()), "{}"
    elif isinstance(obj, (list, tuple)):
        values, brackets = obj, "[]"
    else:
        return json.dumps(obj)
    if not values:
        return brackets
    inner, outer = "\n" + "  " * (level + 1), "\n" + "  " * level
    if _all_scalars(values):
        body = _encoder("," + inner)(obj)[1:-1]
    else:
        texts = _items(values, level + 1)
        if brackets == "{}":
            texts = map(str.__add__, _key_texts(obj), texts)
        body = ("," + inner).join(texts)
    return brackets[0] + inner + body + outer + brackets[1]


def _items(values, level: int) -> list[str]:
    """The text of each of the non-empty ``values``, written at ``level``."""
    kinds = {*map(type, values)}
    texts = None
    if not any(issubclass(kind, _CONTAINERS) for kind in kinds):
        return _scalar_texts(values)
    if all(issubclass(kind, dict) for kind in kinds):
        texts = _records(values, level)
    elif all(issubclass(kind, (list, tuple)) for kind in kinds):
        texts = _flat_lists(values, level)
    return texts or [_write(value, level) for value in values]


def _flat_lists(lists, level: int) -> list[str] | None:
    """The texts of ``lists`` if none is empty or holds a container, from
    one encoder call, or from one ``float.__repr__`` per distinct value when
    all are floats; else None."""
    if not all(lists):
        return None
    kinds = {*map(type, chain.from_iterable(lists))}
    if any(issubclass(kind, _CONTAINERS) for kind in kinds):
        return None
    opening, closing = "[\n" + "  " * (level + 1), "\n" + "  " * level + "]"
    separator = "," + opening[1:]
    if kinds == {float}:
        texts = dict.fromkeys(chain.from_iterable(lists))
        # 0.0 and -0.0 are one key but two texts; the encoder writes NaN and
        # Infinity where repr writes nan and inf
        if 0.0 not in texts and all(map(math.isfinite, texts)):
            texts = dict(zip(texts, map(float.__repr__, texts)))
            return [opening + separator.join(map(texts.__getitem__, values)) + closing
                    for values in lists]
    # "]\x00[" occurs only between two lists: no scalar's text starts with
    # "[" or ends with "]"
    body = (_encoder("\x00")(lists)[2:-2]
            .replace("]\x00[", closing + "\x01" + opening)
            .replace("\x00", separator))
    return (opening + body + closing).split("\x01")


def _records(dicts, level: int) -> list[str] | None:
    """The texts of ``dicts`` if they share one non-empty order of str keys,
    written column by column; else None."""
    keys = tuple(dicts[0])
    # only str keys: equal keys of other types (1, 1.0, True) write differently
    if not (keys and all(type(key) is str for key in keys)) \
            or any(map(keys.__ne__, map(tuple, dicts))):
        return None
    inner = "\n" + "  " * (level + 1)
    template = ("{" + inner
                + ("," + inner).join(key.replace("%", "%%") + "%s" for key in _key_texts(dicts[0]))
                + "\n" + "  " * level + "}")
    columns = [_items(column, level + 1) for column in zip(*map(dict.values, dicts))]
    return list(map(template.__mod__, zip(*columns)))
