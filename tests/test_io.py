import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aqwalk.io import write_rows_atomic

from oracles import format_number

EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               0.1, 1 / 3, 1e16, 1e17]

python_ints = st.one_of(st.integers(), st.integers(2**53, 2**70), st.integers(-2**70, -2**53))
non_ints = st.one_of(
    st.floats(allow_subnormal=True),
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_subnormal=True).map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans(),
)


@st.composite
def tables(draw):
    """A header and rows whose columns each hold only Python ints or only other numbers."""
    kinds = draw(st.lists(st.sampled_from([python_ints, non_ints]), min_size=1, max_size=4))
    count = draw(st.integers(0, 12))
    columns = [draw(st.lists(kind, min_size=count, max_size=count)) for kind in kinds]
    return [f"c{i}" for i in range(len(kinds))], list(zip(*columns))


def _written(header, rows) -> str:
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "rows.csv")
        write_rows_atomic(path, header, rows)
        with open(path, newline="") as handle:
            return handle.read()


def _same_value(text, value) -> bool:
    if isinstance(value, int) and not isinstance(value, bool):
        return int(text) == value
    parsed, expected = float(text), float(value)
    return parsed == expected and math.copysign(1, parsed) == math.copysign(1, expected) or (
        math.isnan(parsed) and math.isnan(expected))


@settings(max_examples=200, deadline=None)
@given(tables())
def test_csv_matches_the_per_value_rule(table):
    header, rows = table
    text = _written(header, rows)
    expected = "".join(",".join(map(format_number, row)) + "\n" for row in rows)
    assert text == ",".join(header) + "\n" + expected
    for line, row in zip(text.splitlines()[1:], rows):
        assert all(_same_value(t, v) for t, v in zip(line.split(","), row))


def test_csv_edge_values():
    rows = [(2**60, v, np.float64(v)) for v in EDGE_FLOATS] + [(-7, True, np.int64(2**62 + 1))]
    lines = _written(["n", "v", "w"], rows).splitlines()
    assert lines[1:4] == ["1152921504606846976,0,0", "1152921504606846976,-0,-0",
                          "1152921504606846976,nan,nan"]
    assert lines[6] == "1152921504606846976,4.9406564584124654e-324,4.9406564584124654e-324"
    assert lines[-1] == "-7,1,4.6116860184273879e+18"
    assert lines[1:] == [",".join(map(format_number, row)) for row in rows]


def test_csv_without_rows_is_the_header_line():
    assert _written(["x", "y", "p"], []) == "x,y,p\n"


def test_csv_column_mixing_ints_and_floats_keeps_the_floats():
    # only a column of Python ints alone is written with %d, which would truncate 0.5
    assert _written(["x", "p"], [(0, 0.5), (1, 2), (2, -3)]) == "x,p\n0,0.5\n1,2\n2,-3\n"
