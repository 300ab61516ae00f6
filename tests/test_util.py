import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ugs_pursuit.util import dumps_indented

# characters that are JSON syntax, %-format syntax, escaped or non-ASCII
strings = st.text(st.sampled_from('[]{},:%"\\\x00\x1f\n é€\U0001f600ab') | st.characters(),
                  max_size=6)
scalars = (st.none() | st.booleans() | strings
           | st.integers() | st.sampled_from([2 ** 64, -(10 ** 40), 0])
           | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e308]))
keys = strings | st.integers() | st.floats() | st.booleans() | st.none()
flat_lists = st.lists(scalars, min_size=1, max_size=4)


@st.composite
def records(draw, children):
    """Dicts sharing one key order (sometimes one row reordered), each
    column drawn from one kind: scalars, non-empty flat lists, flat lists
    that may be empty, or any value."""
    columns = draw(st.lists(strings, max_size=4, unique=True))
    kinds = [draw(st.sampled_from([scalars, flat_lists, flat_lists.map(tuple),
                                   st.lists(scalars, max_size=2), children]))
             for _ in columns]
    rows = [dict(zip(columns, row))
            for row in draw(st.lists(st.tuples(*kinds), max_size=6))]
    if rows and draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = dict(reversed(rows[i].items()))
    return rows


def containers(children):
    return (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(keys, children, max_size=4) | records(children))


json_values = st.recursive(scalars, containers, max_leaves=40)


class Float(float):
    def __repr__(self):
        return f"Float({float.__repr__(self)})"


@settings(max_examples=150, deadline=None)
@given(json_values)
@example([])
@example({})
@example([[], {}, [[]], {"": {}}, ()])
@example([{"a%s": 1, "b": [1, 2]}, {"a%s": "%d", "b": [3]}])
@example([{"a": [1]}, {"a": []}, {"a": {"x": [1]}}])
@example([{"a": 1, "b": 2}, {"b": 2, "a": 1}])
@example([{1: "x"}, {True: "y"}, {1.0: "z"}])
@example([["]", "["], ["\x00"], [math.nan, -0.0, 10 ** 30, True]])
# lists of floats: equal keys with two texts, texts that differ from repr,
# values that are not exact floats, and repeated values
@example([[0.0, -0.0, 1.5], [-0.0]])
@example([[-0.0, 2.5], [0.0]])
@example([[1.0, 1], [True]])
@example([[math.nan, 1.5], [2.5, math.nan]])
@example([[math.inf, 1.5], [-math.inf]])
@example([[Float(1.5), 1.5], [Float(2.0)]])
@example([{"D": [0.1, 1e308, 0.1]}, {"D": [5e-324, -2.5, 0.1]}])
def test_dumps_indented_matches_json_dumps(value):
    assert dumps_indented(value) == json.dumps(value, indent=2)

