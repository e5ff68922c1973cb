"""The result table's CSV lines against the per-cell reference.

grid._row_pieces writes a result Row with one format string per line and
makes the text of u and v once per coordinate object; table_reference
keeps the per-cell formulation that replaced.  The two must agree byte
for byte on every value, flag and coordinate object, through the library
writers and through grid and ingest in one process and in two.
"""

import io
import math

import pytest

import table_reference as ref
from monge4 import grid
from monge4.cli import main
from monge4.grid import (CHUNK_ROWS, RESULT_HEADER, GridResult, GridSpec,
                         Row, _row_pieces, evaluate_discrete, export_csv,
                         export_samples_csv, ingest_csv, sample_grid,
                         sample_values)
from monge4.patch import make_explicit


def _fresh(x: float) -> float:
    """An equal float (of the same sign, or NaN) that is another object."""
    y = float(repr(x))
    assert y is not x
    return y


# -0.0, NaN, infinities, subnormals, and both sides of the points where
# repr switches between positional and exponent form (1e16 and 1e-4)
VALUES = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
          2.225073858507201e-308, 2.2250738585072014e-308, 1e16,
          math.nextafter(1e16, 0.0), 1e-4, math.nextafter(1e-4, 0.0), 1e-5,
          math.nextafter(1e-5, 1.0), -1.5, 0.1, 1e300, -123456.789]

# flags as node_rows makes them, and flags that need quoting: a comma, a
# quote, a carriage return and a line feed
FLAGS = ["", "boundary", "bad-sample: non-finite sample near node (3, 7)",
         'domain-error: "x", y', "cr\rhere", "lf\nhere", 'a"b', "", "plain"]

# 0.0 and -0.0 as distinct objects in one column (one after the other in
# u) and in one grid row (in v); equal values as distinct objects
ZERO, NEGATIVE_ZERO, HALF = 0.0, -0.0, 0.5
US = [ZERO, NEGATIVE_ZERO, _fresh(ZERO), HALF, _fresh(HALF), -1e-5, 1e16]
VS = [ZERO, NEGATIVE_ZERO, _fresh(ZERO), _fresh(NEGATIVE_ZERO), HALF,
      _fresh(HALF), 5e-324, math.nan]


def _first_difference(text, want):
    """None where text is want, else the first line where they differ,
    with its number: a quick failure message where a diff of two long
    tables would take minutes."""
    if text == want:
        return None
    lines, wanted = text.splitlines(True), want.splitlines(True)
    for k, pair in enumerate(zip(lines, wanted)):
        if pair[0] != pair[1]:
            return k, *pair
    return len(wanted), len(lines), "line counts differ"


def _odd_rows():
    """A grid of US x VS rows, v fastest, over every value in every column
    and every flag."""
    rows = []
    for u in US:
        for v in VS:
            k = len(rows)
            values = [VALUES[(k + c) % len(VALUES)] for c in range(11)]
            rows.append(Row(u, v, *values, FLAGS[k % len(FLAGS)]))
    return rows


def test_result_lines_match_the_per_cell_reference():
    rows = _odd_rows()
    assert _first_difference("".join(_row_pieces("csv", RESULT_HEADER, rows)),
                             ref.csv_lines(rows)) is None
    # the same coordinate objects over three chunks of CHUNK_ROWS
    many = rows * (2 * CHUNK_ROWS // len(rows) + 1)
    pieces = list(_row_pieces("csv", RESULT_HEADER, many))
    assert len(pieces) == 3
    assert _first_difference("".join(pieces), ref.csv_lines(many)) is None
    out = io.StringIO()
    export_csv(GridResult(GridSpec(0, 1, 0, 1, 2, 2), rows), out)
    assert _first_difference(out.getvalue(),
                             ref.csv_table(RESULT_HEADER, rows)) is None


def test_result_lines_of_coordinates_made_and_dropped_row_by_row():
    # each row has new u and v objects, dropped once written, so a freed
    # coordinate's id is soon another's: text keyed by id must not outlive
    # the object it was made of
    def rows():
        for k in range(3 * CHUNK_ROWS):
            sign = "-" if k % 3 else ""
            yield Row(float(f"{sign}0.0"), float(f"{sign}{k % 5}.0"),
                      flag="" if k % 7 else "a,b")
    assert _first_difference("".join(_row_pieces("csv", RESULT_HEADER,
                                                 rows())),
                             ref.csv_lines(rows())) is None


def test_tables_of_other_shapes_keep_the_per_cell_loop():
    header = ("name", "x", "ok")
    rows = [("a,b", -0.0, True), ('q"', math.nan, False), ("", 1e16, 3)]
    assert "".join(_row_pieces("csv", header, rows)) == ref.csv_lines(rows)
    # the u, v, f, g samples table, written by export_samples_csv
    dp = sample_values(make_explicit("u*v", "u-v"),
                       GridSpec(-1.0, 1.0, -1.0, 1.0, 3, 3))
    out = io.StringIO()
    export_samples_csv(dp, out)
    assert out.getvalue() == ref.csv_table(
        ("u", "v", "f", "g"),
        [(u, v, dp.f[i][j], dp.g[i][j]) for i, u in enumerate(dp.us)
         for j, v in enumerate(dp.vs)])


# a log domain error on the u = -1 column, and -0.0 in K and KN
SURFACE = ("u^3", "0-v^3+0*log(u+1)")


def _holed_samples(path):
    """40 x 40 samples with NaN holes: quoted bad-sample flags in the
    first and last chunk of nodes."""
    dp = sample_values(make_explicit("u^3+sin(v)+u*v", "exp(u)*v+v^2"),
                       GridSpec(-1, 1, -1, 1, 40, 40))
    dp.f[3][7] = dp.f[36][30] = math.nan
    export_samples_csv(dp, str(path))


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("case", ["grid", "thin-grid", "ingest"])
def test_commands_write_the_reference_table(tmp_path, capsys, monkeypatch,
                                            case, to_file, jobs):
    if case == "ingest":
        samples = tmp_path / "samples.csv"
        _holed_samples(samples)
        argv = ["ingest", str(samples)]
        rows = evaluate_discrete(ingest_csv(samples)).rows
        assert any("," in r.flag for r in rows)
    else:
        # 2 x 3000: six chunks, whose spans cross a grid row
        nu, nv = (48, 48) if case == "grid" else (2, 3000)
        spec = GridSpec(-1.0, 1.0, -1.0, 1.0, nu, nv)
        argv = ["grid", "--f", SURFACE[0], "--g", SURFACE[1],
                "--nu", str(nu), "--nv", str(nv)]
        rows = sample_grid(make_explicit(*SURFACE), spec).rows
    want = ref.csv_table(RESULT_HEADER, rows)
    monkeypatch.setattr(grid, "cores", lambda: jobs)
    table = tmp_path / "table.csv"
    code = main([*argv, "--out", str(table)] if to_file else argv)
    out = capsys.readouterr().out
    assert code == 0
    text = table.read_bytes().decode() if to_file else out
    assert _first_difference(text, want) is None
