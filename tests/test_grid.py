import io
import math
import os
import signal
import stat
import sys
import tracemalloc

import pytest

from monge4 import grid
from monge4.grid import (MODES, DiscretePatch, GridResult, GridSpec, Row,
                         chunk_pieces, discrete_rows,
                         discrete_rows_between, evaluate_discrete, export_csv,
                         export_samples_csv, fd_jets, grid_rows,
                         grid_rows_between, ingest_csv, ingest_samples,
                         read_samples_csv, sample_grid, sample_values)
from monge4.invariants import ConsistencyError
from monge4.patch import make_aminov, make_explicit, make_translation
from monge4.selfcheck import fd_convergence


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 0.0, 1.0, 1, 5)
    with pytest.raises(ValueError):
        GridSpec(1.0, 0.0, 0.0, 1.0, 5, 5)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            GridSpec(-bad, 1.0, 0.0, 1.0, 5, 5)
        with pytest.raises(ValueError, match="finite"):
            GridSpec(0.0, 1.0, 0.0, bad, 5, 5)
    spec = GridSpec(0.5, 2.0, 0.0, math.pi, 5, 5)
    assert spec.u_at(0) == 0.5
    assert spec.u_at(4) == 2.0
    assert spec.v_at(4) == math.pi
    pts = list(spec.points())
    assert len(pts) == 25
    assert pts[0][:2] == (0, 0)
    assert pts[1][:2] == (0, 1)  # v runs fastest
    assert pts[5][:2] == (1, 0)


def test_sample_grid_plane():
    spec = GridSpec(-1.0, 1.0, -1.0, 1.0, 3, 4)
    res = sample_grid(make_explicit("0", "0"), spec)
    assert len(res.rows) == 12
    for r in res.rows:
        assert r.flag == ""
        assert (r.E, r.F, r.G, r.W2) == (1.0, 0.0, 1.0, 1.0)
        assert (r.K, r.KN, r.Hnorm, r.chen, r.wintgen) == (0, 0, 0, 0, 0)


def test_sample_grid_matches_closed_forms():
    patch = make_aminov("u", (0.5, 2.0))
    spec = GridSpec(0.5, 2.0, 0.0, math.pi, 7, 5)
    res = sample_grid(patch, spec)
    at_one = [r for r in res.rows if r.u == 1.0]
    assert len(at_one) == 5
    for r in at_one:
        assert abs(r.K + 0.125) < 1e-13


def test_sample_grid_flags_domain_failures():
    patch = make_translation("u^2", "0", "v^2", "0", domain=(-1, 1, -1, 1))
    spec = GridSpec(-2.0, 2.0, 0.0, 1.0, 5, 3)
    res = sample_grid(patch, spec)
    assert len(res.rows) == 15
    flagged = [r for r in res.rows if r.flag]
    assert len(flagged) == 6  # u = -2 and u = 2 columns
    for r in flagged:
        assert r.flag.startswith("domain-error")
        assert math.isnan(r.K)


def test_fd_jets_interior_only():
    patch = make_explicit("u^2+v^2", "u^2-v^2")
    dp = sample_values(patch, GridSpec(-0.05, 0.05, -0.05, 0.05, 11, 11))
    with pytest.raises(ValueError):
        fd_jets(dp, 0, 5)
    with pytest.raises(ValueError):
        fd_jets(dp, 5, 10)
    jets = fd_jets(dp, 5, 5)
    assert abs(jets.f.duu - 2.0) < 1e-9
    assert abs(jets.g.dvv + 2.0) < 1e-9


def test_fd_pipeline_on_flat_surface():
    patch = make_explicit("u^2+v^2", "u^2-v^2")
    dp = sample_values(patch, GridSpec(-0.05, 0.05, -0.05, 0.05, 11, 11))
    res = evaluate_discrete(dp)
    assert len(res.rows) == 121
    interior = [r for r in res.rows if not r.flag]
    assert len(interior) == 81
    for r in interior:
        assert abs(r.K) < 1e-6
        assert abs(r.KN) < 1e-6
    for r in res.rows:
        if r.flag:
            assert r.flag == "boundary"


def test_fd_convergence_is_second_order():
    ratio, shared = fd_convergence()
    assert shared == 19 * 19  # every interior node of the coarse grid
    assert 3.5 < ratio < 4.5


def test_ingest_tiny_grid():
    records = [(u, v, 0.0, 0.0) for u in (0.0, 0.1, 0.2) for v in (0.0, 0.1, 0.2)]
    dp = ingest_samples(records)
    assert dp.g is not None
    assert dp.us == dp.vs == (0.0, 0.1, 0.2)
    res = evaluate_discrete(dp)
    interior = [r for r in res.rows if not r.flag]
    assert len(interior) == 1
    assert (interior[0].K, interior[0].KN) == (0.0, 0.0)
    assert (interior[0].E, interior[0].G) == (1.0, 1.0)


def _channel_bytes(dp):
    return [repr(dp.us), repr(dp.vs)] + [row.tobytes() for row in dp.f + dp.g]


def test_ingest_accepts_any_row_order(tmp_path):
    # u = 0 is written as -0.0 on two rows: the axis must not depend on
    # which sign comes first
    records = [(u if u or v % 1 else -0.0, v, u * v, u - v)
               for u in (0.0, 0.5, 1.0) for v in (0.0, 0.5, 1.0, 1.5)]
    want = _channel_bytes(ingest_samples(records))
    shuffled = records[1::2] + records[::2]
    path = tmp_path / "shuffled.csv"
    path.write_text("u,v,f,g\n" + "".join(
        ",".join(map(repr, r)) + "\n" for r in shuffled))
    for given in (list(reversed(records)), (r for r in records),
                  iter(records), iter(shuffled), read_samples_csv(path)):
        assert _channel_bytes(ingest_samples(given)) == want


# The tracemalloc peak of ingest_samples on the records of a 101 x 101
# file, per node: 54 bytes when it copied the records into columns of
# its own, about 20 reading them in place (the two channels, 16 bytes
# per node, and the one-byte node mask).
INGEST_SAMPLES_PEAK_BYTES_PER_NODE = 32


def test_ingest_samples_makes_no_copy(tmp_path):
    path = tmp_path / "samples.csv"
    export_samples_csv(sample_values(make_explicit("u^3+sin(v)+u*v", "u*v"),
                                     GridSpec(-1, 1, -1, 1, 101, 101)),
                       str(path))
    records = read_samples_csv(path)
    tracemalloc.start()
    try:
        dp = ingest_samples(records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(dp.us), len(dp.vs)) == (101, 101)
    assert peak < INGEST_SAMPLES_PEAK_BYTES_PER_NODE * len(records)


def test_ingest_reports_missing_node():
    records = [(i * 0.1, j * 0.1, 0.0, 0.0)
               for i in range(4) for j in range(4) if (i, j) != (2, 3)]
    with pytest.raises(ValueError) as err:
        ingest_samples(records)
    assert "(2, 3)" in str(err.value)


def test_ingest_node_messages():
    records = [(float(i), float(j), 0.0) for i in range(4) for j in range(5)
               if (i + j) % 2]
    with pytest.raises(ValueError) as err:
        ingest_samples(records)
    assert str(err.value) == (
        "incomplete grid, missing nodes [(0, 0), (0, 2), (0, 4), (1, 1), "
        "(1, 3), (2, 0), (2, 2), (2, 4)]...")
    with pytest.raises(ValueError) as err:
        ingest_samples(records[-1:] + records)
    assert str(err.value) == "duplicate sample at node (3, 4)"


@pytest.mark.parametrize("axis, bad", [(0, math.nan), (0, math.inf),
                                       (1, -math.inf), (1, math.nan)])
def test_ingest_rejects_non_finite_coordinates(axis, bad):
    good = [(u, v, 0.0, 0.0) for u in (0.0, 0.5, 1.0) for v in (0.0, 0.5)]
    # two records on the bad coordinate: as float("nan") from a CSV, each
    # NaN is its own object, so the set of distinct values holds both
    records = good + [tuple(float(bad) if k == axis else x
                            for k, x in enumerate(r)) for r in good[:2]]
    name = "uv"[axis]
    with pytest.raises(ValueError,
                       match=f"^non-finite {name} coordinate {bad!r}$"):
        ingest_samples(records)


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("values", [
    (-1e308, 0.0, 1.2e308), (-1e308, 1e308),
    # the span fits, but its spacing squared does not
    (0.0, sys.float_info.max / 3, 2 * (sys.float_info.max / 3),
     sys.float_info.max)])
def test_ingest_rejects_overflowing_span(axis, values):
    records = [((a, b) if axis == 0 else (b, a)) + (0.0, 0.0)
               for a in values for b in (0.0, 1.0)]
    name = "uv"[axis]
    with pytest.raises(ValueError) as err:
        ingest_samples(records)
    h = (values[-1] - values[0]) / (len(values) - 1)
    assert str(err.value) == (
        f"{name} spacing {h!r} is out of range for the difference stencil"
        if math.isfinite(h) else
        f"{name} span from {values[0]!r} to {values[-1]!r} overflows")


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("h, accepted", [
    (1e200, False), (1e-200, False),  # h**2 overflows, or underflows to 0
    (1e154, True), (1e-161, True)])
def test_ingest_spacing_range_matches_the_stencil(axis, h, accepted):
    values = (0.0, h, 2 * h, 3 * h)
    records = [((a, b) if axis == 0 else (b, a)) + (1.0, 0.0)
               for a in values for b in (0.0, 1.0, 2.0)]
    if accepted:  # the stencil runs at the interior nodes without raising
        rows = list(discrete_rows(ingest_samples(records)))
        assert sum(row.flag != "boundary" for row in rows) == 2
        return
    with pytest.raises(ValueError) as err:
        ingest_samples(records)
    assert str(err.value) == (f"{'uv'[axis]} spacing {values[-1] / 3!r} "
                              "is out of range for the difference stencil")


def test_ingest_rejects_duplicates_and_ragged_rows():
    records = [(0.0, 0.0, 1.0, 0.0), (0.0, 1.0, 1.0, 0.0),
               (1.0, 0.0, 1.0, 0.0), (1.0, 1.0, 1.0, 0.0),
               (1.0, 1.0, 2.0, 0.0)]
    with pytest.raises(ValueError):
        ingest_samples(records)
    with pytest.raises(ValueError):
        ingest_samples([(0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 2.0)])


def test_ingest_validates_spacing():
    records = [(u, v, 0.0, 0.0) for u in (0.0, 0.1, 0.25) for v in (0.0, 0.1, 0.2)]
    with pytest.raises(ValueError) as err:
        ingest_samples(records)
    assert "spacing" in str(err.value)
    good = [(u, v, 0.0, 0.0) for u in (0.0, 0.1, 0.2) for v in (0.0, 0.1, 0.2)]
    with pytest.raises(ValueError):
        ingest_samples(good, hu=0.5)
    with pytest.raises(ValueError):
        ingest_samples(good, mode="monge3")


@pytest.mark.parametrize("name", ["hu", "hv"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ingest_rejects_non_finite_spacing(name, bad):
    good = [(u, v, 0.0, 0.0) for u in (0.0, 0.1, 0.2) for v in (0.0, 0.5)]
    inferred = {"hu": 0.1, "hv": 0.5}[name]
    with pytest.raises(ValueError, match=(
            f"^{name}={bad!r} does not match inferred {inferred!r}$")):
        ingest_samples(good, **{name: bad})


def test_sample_values_rejects_unknown_mode():
    with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
        sample_values(make_explicit("u", "v"), GridSpec(0, 1, 0, 1, 3, 3),
                      mode="bogus")


def test_sampled_rows_sit_at_the_spec_nodes(tmp_path):
    # u0 + i * hu is not u_at(i) on this spec: the samples were taken at
    # u = -4.837270592925524, but rows and export said -4.837270592925523
    spec = GridSpec(-5.3564774387397085, 4.9238181083811545, -1, 1, 298, 5)
    dp = sample_values(make_explicit("u^2+v^2", "u*v"), spec)
    result = evaluate_discrete(dp)
    nodes = [(u, v) for _, _, u, v in spec.points()]
    assert result.spec == spec
    assert [(r.u, r.v) for r in result.rows] == nodes
    path = tmp_path / "samples.csv"
    export_samples_csv(dp, path)
    assert [record[:2] for record in read_samples_csv(path)] == nodes


def test_monge3_samples_hold_one_channel(tmp_path):
    # g = u*v is left out: a monge3 patch that kept it gave K = 3 at the
    # origin, where the depth map f = u^2 + v^2 has K = 4
    patch = make_explicit("u^2+v^2", "u*v")
    dp = sample_values(patch, GridSpec(-0.5, 0.5, -0.5, 0.5, 11, 11),
                       mode="monge3")
    path = tmp_path / "samples.csv"
    export_samples_csv(dp, path)
    back = ingest_csv(path)
    assert dp.g is None and back.g is None
    rows = evaluate_discrete(dp).rows
    assert list(map(repr, rows)) == list(map(repr, evaluate_discrete(back).rows))
    assert (rows[60].u, rows[60].v) == (0.0, 0.0)
    assert abs(rows[60].K - 4.0) < 1e-9


def test_monge3_mode_reduces_to_classical_surface():
    patch = make_explicit("u^2+v^2", "0")
    dp = sample_values(patch, GridSpec(-0.05, 0.05, -0.05, 0.05, 11, 11),
                       mode="monge3")
    res = evaluate_discrete(dp)
    center = [r for r in res.rows if r.u == 0.0 and r.v == 0.0][0]
    assert abs(center.K - 4.0) < 1e-8
    assert abs(center.H1 - 2.0) < 1e-8
    for r in res.rows:
        if not r.flag:
            assert abs(r.KN) < 1e-14
            assert abs(r.H2) < 1e-14
            fu, fv = 2 * r.u, 2 * r.v
            classical = ((1 + fv**2) * 2 + (1 + fu**2) * 2) / (
                2 * (1 + fu**2 + fv**2) ** 1.5)
            assert abs(r.H1 - classical) < 1e-7


def test_bad_sample_flags_neighborhood():
    records = [(u * 0.1, v * 0.1, 0.0, 0.0) for u in range(5) for v in range(5)]
    records[12] = (0.2, 0.2, math.nan, 0.0)  # center node
    dp = ingest_samples(records)
    res = evaluate_discrete(dp)
    bad = [r for r in res.rows if r.flag.startswith("bad-sample")]
    assert len(bad) == 9  # whole interior: every stencil sees the nan
    assert len(res.rows) == 25


def test_invariant_overflow_is_a_domain_error_not_a_bad_sample():
    # every sample is finite, but the stencil's slopes overflow the forms
    records = [(u, v, 0.0, 0.0) for u in range(3) for v in range(3)]
    records[0] = (0, 0, 1e308, 0.0)
    records[1] = (0, 1, -1e308, 0.0)
    res = evaluate_discrete(ingest_samples(records))
    assert res.rows[4].flag == "domain-error: invariants overflowed"
    assert all(r.flag == "boundary" for k, r in enumerate(res.rows) if k != 4)


def test_csv_round_trip(tmp_path):
    patch = make_explicit("u^3+sin(v)+u*v", "exp(u)*v+v^2")
    dp = sample_values(patch, GridSpec(-1.0, 1.0, -1.0, 1.0, 6, 7))
    path = tmp_path / "samples.csv"
    export_samples_csv(dp, path)
    back = ingest_csv(path)
    assert back.f == dp.f
    assert back.g == dp.g
    assert (back.us, back.vs) == (dp.us, dp.vs)
    assert back.source == str(path)


def _bits(channel) -> list:
    return [row.tobytes() for row in channel]


@pytest.mark.parametrize("mode", MODES)
def test_csv_round_trip_is_bit_exact(tmp_path, mode):
    # == cannot tell -0.0 from 0.0; the bytes of the doubles can
    records = [(0.5 * i, 0.25 * j, -0.0 if (i + j) % 3 == 0 else i - 0.3 * j,
                -0.0 if i == j else 1e-300 * j - i)[:3 if mode == "monge3" else 4]
               for i in range(4) for j in range(5)]
    dp = ingest_samples(records)
    assert (dp.g is None) == (mode == "monge3")
    assert repr(dp.f[0][0]) == "-0.0"
    path = tmp_path / "samples.csv"
    export_samples_csv(dp, path)
    back = ingest_csv(path)
    assert (back.g is None) == (dp.g is None)
    assert _bits(back.f) == _bits(dp.f)
    assert _bits(back.g or []) == _bits(dp.g or [])
    channels = [back.f] if back.g is None else [back.f, back.g]
    want = {(r[0], r[1]): r[2:] for r in records}
    for i, u in enumerate(back.us):
        for j, v in enumerate(back.vs):
            heights = [z[i][j] for z in channels]
            assert list(map(repr, heights)) == list(map(repr, want[u, v]))


def test_read_samples_csv_records(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("u,v,f\n0,0,1.5\n\n0,1,-0.0\n")
    records = read_samples_csv(path)
    assert len(records) == 2
    assert [tuple(map(repr, r)) for r in records] == [
        ("0.0", "0.0", "1.5"), ("0.0", "1.0", "-0.0")]
    assert list(records) == list(records)  # each pass yields every record


def test_read_samples_csv_errors(tmp_path):
    # raised by the read itself, before any record is iterated
    path = tmp_path / "bad.csv"
    for text, message in [
            ("x,y,z\n0,0,0\n",
             "unexpected header ['x', 'y', 'z'], want u,v,f or u,v,f,g"),
            ("u,v,f\n0,0,oops\n", "row 2: non-numeric cell"),
            ("u,v,f\n0,0,1\n\n0,1,oops\n", "row 4: non-numeric cell"),
            ("u,v,f\n0,0\n", "row 2: expected 3 cells"),
            ("u,v,f,g\n0,0,1,2\n0,1,1\n", "row 3: expected 4 cells"),
            ("", "empty samples file")]:
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            read_samples_csv(path)
        assert str(err.value) == message


def test_export_csv_format(tmp_path):
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2)
    res = sample_grid(make_explicit("0", "0"), spec)
    path = tmp_path / "out.csv"
    export_csv(res, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "u,v,E,F,G,W2,K,KN,H1,H2,Hnorm,chen,wintgen,flag"
    assert len(lines) == 5
    assert lines[1].split(",")[:2] == ["0.0", "0.0"]
    assert lines[1].endswith(",")  # empty flag cell


def test_export_csv_flagged_rows(tmp_path):
    patch = make_explicit("log(u)", "0")
    res = sample_grid(patch, GridSpec(-1.0, 1.0, 0.0, 1.0, 3, 2))
    path = tmp_path / "out.csv"
    export_csv(res, path)
    lines = path.read_text().splitlines()
    flagged = [ln for ln in lines[1:] if not ln.endswith(",")]
    assert flagged
    for ln in flagged:
        assert "nan" in ln
        assert "domain-error" in ln


def _disagreeing_stream():
    # the dual-path check fires after about a thousand rows have streamed
    spec = GridSpec(-1.0, 1.0, -1.0, 1.0, 51, 51)
    patch = make_explicit("10*u^2+7.868*v^2", "100*u^2+78.68*v^2")
    return GridResult(spec, grid_rows(patch, spec))


def _short_row_samples():
    return DiscretePatch((0.0, 1.0), (0.0, 1.0), [[1.0, 2.0], [1.0]])


@pytest.mark.parametrize("export, source, error", [
    (export_csv, _disagreeing_stream, ConsistencyError),
    (export_samples_csv, _short_row_samples, IndexError),
], ids=["export_csv", "export_samples_csv"])
def test_failed_export_leaves_the_file_as_it_was(tmp_path, export, source,
                                                 error):
    path = tmp_path / "table.csv"
    path.write_bytes(b"earlier result\n")
    with pytest.raises(error):
        export(source(), path)
    assert path.read_bytes() == b"earlier result\n"
    assert os.listdir(tmp_path) == ["table.csv"]


def test_export_csv_keeps_the_mode_of_an_existing_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"earlier result\n")
    path.chmod(0o640)
    export_csv(sample_grid(make_explicit("0", "0"),
                           GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2)), path)
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert path.read_text().count("\n") == 5
    assert os.listdir(tmp_path) == ["out.csv"]


def test_export_samples_csv_writes_a_stream_in_place():
    out = io.StringIO()
    out.write("# samples\n")
    dp = DiscretePatch((0.0, 1.0), (0.0, 0.5), [[1.0, 2.0], [3.0, 4.0]])
    export_samples_csv(dp, out)
    assert not out.closed
    assert out.getvalue() == ("# samples\nu,v,f\n0.0,0.0,1.0\n0.0,0.5,2.0\n"
                              "1.0,0.0,3.0\n1.0,0.5,4.0\n")


def test_row_defaults_are_nan():
    r = Row(0.0, 0.0, flag="boundary")
    assert math.isnan(r.K) and math.isnan(r.chen)


@pytest.mark.parametrize("f, g, center_flag", [
    # exp(700)^2 overflows: every node's jets hold inf or nan
    ("exp(700)*exp(700)*u", "v", "domain-error: non-finite jets"),
    # finite forms at the origin whose chen residual overflows
    ("1e80*(u^2+v^2)", "1e80*(2*u^2+v^2)",
     "domain-error: non-finite predicate residuals"),
    # a plane whose invariants are 0 but whose W2 = (fu gv)^2 + ... overflows
    ("1e100*u", "1e100*v", "domain-error: non-finite metric"),
])
def test_non_finite_values_are_flagged_not_returned(f, g, center_flag):
    result = sample_grid(make_explicit(f, g),
                         GridSpec(-1.0, 1.0, -1.0, 1.0, 3, 3))
    assert result.rows[4].flag == center_flag
    assert all(r.flag.startswith("domain-error: ") for r in result.rows)
    assert all(math.isnan(r.K) for r in result.rows)


def test_rows_between_split_the_node_order():
    patch = make_explicit("u^3", "0-v^3+0*log(u+1)")
    spec = GridSpec(-1.0, 1.0, -1.0, 1.0, 5, 4)
    dp = sample_values(make_explicit("u*v", "u-v"), spec)
    for whole, between in ((list(grid_rows(patch, spec)),
                            lambda a, b: grid_rows_between(patch, spec, a, b)),
                           (list(discrete_rows(dp)),
                            lambda a, b: discrete_rows_between(dp, a, b))):
        assert [repr(r) for r in between(0, 7)] + \
            [repr(r) for r in between(7, 20)] == [repr(r) for r in whole]
        assert list(between(3, 3)) == []


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("jobs", [1, 2, 3, 6])
def test_chunk_pieces_come_in_chunk_order(monkeypatch, jobs):
    monkeypatch.setattr(grid, "cores", lambda: jobs)
    made = []

    def render(k):
        made.append(k)
        yield f"{k}a"
        yield f"{k}b"

    merged = []
    pieces = chunk_pieces(5, render, lambda: ",".join(map(str, made)),
                          merged.append)
    n = min(jobs, 5)  # the processes that make chunks
    # a worker sends each chunk whole, as one piece
    assert list(pieces) == [piece for k in range(5) for piece in (
        [f"{k}a", f"{k}b"] if k % n == 0 else [f"{k}a{k}b"])]
    assert made == list(range(0, 5, n))
    assert merged == [",".join(map(str, range(c, 5, n))) for c in range(1, n)]
    _no_child_left()


def test_chunk_pieces_in_a_process_that_ignores_sigchld(monkeypatch):
    # the kernel reaps the children itself, so there is none to wait for
    monkeypatch.setattr(grid, "cores", lambda: 2)
    old = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        pieces = chunk_pieces(3, lambda k: iter([str(k)]), str, print)
        assert list(pieces) == ["0", "1", "2"]
    finally:
        signal.signal(signal.SIGCHLD, old)
    _no_child_left()


def _failing_at_chunk_1(error):
    def render(k):
        yield str(k)
        if k == 1:
            raise error
    return render


@pytest.mark.parametrize("error, raised, message", [
    (ConsistencyError("paths disagree"), ConsistencyError, "^paths disagree$"),
    (KeyError("x"), ChildProcessError,
     "^a chunk worker failed: KeyError: 'x'$"),
])
def test_chunk_worker_errors_are_raised_in_chunk_order(monkeypatch, error,
                                                       raised, message):
    monkeypatch.setattr(grid, "cores", lambda: 2)
    pieces = chunk_pieces(3, _failing_at_chunk_1(error), str, print)
    # the text of chunk 1 before its error, then the error
    assert (next(pieces), next(pieces)) == ("0", "1")
    with pytest.raises(raised, match=message):
        next(pieces)
    _no_child_left()
