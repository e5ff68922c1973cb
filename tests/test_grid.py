import errno
import io
import math
import os
import signal
import stat
import struct
import sys
import time
import tracemalloc

import pytest

from monge4 import grid
from monge4.classify import exact_jets
from monge4.grid import (CHUNK_ROWS, MODES, DiscretePatch, GridResult,
                         GridSpec, Row, chunk_pieces, evaluate_discrete,
                         export_csv, export_samples_csv, fd_jets, ingest_csv,
                         ingest_samples, read_samples_csv, rows, sample_grid,
                         sample_values, sampled_jets)
from monge4.invariants import ConsistencyError
from monge4.jet import DomainError
from monge4.patch import (jet_floats, make_aminov, make_explicit,
                          make_translation)
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
    # nodes 0 .. 24 in rows of 5, v fastest: node k is (k // 5, k % 5)
    assert list(spec.spans(0, 25)) == [(i, range(5)) for i in range(5)]
    assert list(spec.spans(3, 12)) == [(0, range(3, 5)), (1, range(5)),
                                       (2, range(2))]
    assert list(spec.spans(7, 7)) == []


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
        made = evaluate_discrete(ingest_samples(records)).rows
        assert sum(row.flag != "boundary" for row in made) == 2
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
    nodes = [(spec.u_at(i), spec.v_at(j))
             for i in range(spec.nu) for j in range(spec.nv)]
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
    return GridResult(spec, rows(exact_jets(patch, spec)(0, 51 * 51)))


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


def bits(floats):
    """The floats as bytes, so that -0.0 and 0.0 differ and NaN equals NaN."""
    return b"".join(struct.pack("d", x) for x in floats)


class _Axis:
    """The coordinates of one axis of a GridSpec, made as they are read,
    as a DiscretePatch's us or vs; reads counts them."""

    def __init__(self, at, spec, n):
        self.at, self.spec, self.n, self.reads = at, spec, n, 0

    def __len__(self):
        return self.n

    def __getitem__(self, k):
        self.reads += 1
        return self.at(self.spec, k % self.n)


# (start, stop) of both sources: whole grid, within a row, across rows,
# over whole rows, at the ends and empty, of the 5 x 4 spec below
RANGES = ((0, 20), (0, 3), (2, 7), (3, 13), (4, 12), (5, 9), (7, 7),
          (8, 8), (19, 20), (20, 20), (0, 0))


def test_nodes_make_only_the_coordinates_of_their_nodes(monkeypatch):
    u_at, v_at = GridSpec.u_at, GridSpec.v_at
    patch = make_explicit("u*v", "u-v+0*log(u+1)")
    spec = GridSpec(-1.0, 1.0, -2.0, 2.0, 5, 4)
    dp = sample_values(make_explicit("u^2", "u*v"), spec)
    calls = {u_at: 0, v_at: 0}

    def counted(at):
        def count(spec, k):
            calls[at] += 1
            return at(spec, k)
        return count

    monkeypatch.setattr(GridSpec, "u_at", counted(u_at))
    monkeypatch.setattr(GridSpec, "v_at", counted(v_at))
    # one chunk of a thin grid costs its own nodes, not a whole axis, for
    # both sources: this one crosses from row 0 into row 1
    thin = GridSpec(-1.0, 1.0, -1.0, 1.0, 2, 10**6)
    cut = range(10**6 - CHUNK_ROWS // 2, 10**6 + CHUNK_ROWS // 2)
    nodes = [(u_at(thin, k // 10**6), v_at(thin, k % 10**6)) for k in cut]
    exact = list(exact_jets(patch, thin)(cut.start, cut.stop))
    assert [(u, v) for u, v, _ in exact] == nodes
    assert calls == {u_at: 2, v_at: CHUNK_ROWS}
    assert [_outcome(jets) for *_, jets in exact] == [
        _jet_floats(patch, u, v) for u, v in nodes]
    us, vs = _Axis(u_at, thin, 2), _Axis(v_at, thin, 10**6)
    sampled = list(sampled_jets(DiscretePatch(us, vs, None))(cut.start,
                                                             cut.stop))
    assert sampled == [(u, v, "boundary") for u, v in nodes]
    assert us.reads + vs.reads < 2 * len(cut)
    # the same nodes of both sources, each made once per range of a new
    # exact source
    for start, stop in RANGES:
        calls = {u_at: 0, v_at: 0}
        ks = range(start, stop)
        nodes = [(u_at(spec, k // 4), v_at(spec, k % 4)) for k in ks]
        exact = list(exact_jets(patch, spec)(start, stop))
        sampled = list(sampled_jets(dp)(start, stop))  # reads dp's own
        assert calls == {u_at: len({k // 4 for k in ks}),
                         v_at: len({k % 4 for k in ks})}
        assert [(u, v) for u, v, _ in exact] == nodes
        assert [(u, v) for u, v, _ in sampled] == nodes
        assert [_outcome(jets) for *_, jets in exact] == [
            _jet_floats(patch, u, v) for u, v in nodes]
        assert [_outcome(jets) for *_, jets in sampled] == [
            _fd_jets(dp, k // 4, k % 4) for k in ks]


def _outcome(jets):
    """The jets of a node source as bytes, or its flag or error as text."""
    return bits(jets) if isinstance(jets, tuple) else str(jets)


def _jet_floats(patch, u, v):
    try:
        return bits(jet_floats(patch, u, v))
    except DomainError as err:
        return str(err)


def _fd_jets(dp, i, j):
    try:
        return bits(sum(fd_jets(dp, i, j), ()))
    except ValueError as err:
        return ("boundary" if "not interior" in str(err)
                else f"bad-sample: {err}")


def test_rows_between_split_the_node_order():
    # the u = -1 row fails its domain, and a hole flags the nodes near it
    patch = make_explicit("u^3", "0-v^3+0*log(u+1)")
    spec = GridSpec(-1.0, 1.0, -1.0, 1.0, 5, 4)
    dp = sample_values(make_explicit("u*v", "u-v"), spec)
    dp.f[2][1] = math.nan
    # the ranges of one source of each kind, which keeps what it made
    for whole, source in ((sample_grid(patch, spec).rows,
                           exact_jets(patch, spec)),
                          (evaluate_discrete(dp).rows, sampled_jets(dp))):
        for cuts in ((0, 7, 20), (0, 4, 8, 20), (0, 3, 3, 5, 13, 19, 20),
                     tuple(range(21))):
            assert [repr(r) for a, b in zip(cuts, cuts[1:])
                    for r in rows(source(a, b))] == [repr(r) for r in whole]
        for start, stop in RANGES:
            assert ([repr(r) for r in rows(source(start, stop))]
                    == [repr(r) for r in whole[start:stop]])


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _Reports:
    """A chunk_pieces state: report() names the chunks that render()
    recorded in made in this process, merge() keeps the reports."""

    def __init__(self):
        self.made, self.merged = [], []

    def report(self):
        return ",".join(map(str, self.made))

    def merge(self, report):
        self.merged.append(report)


@pytest.mark.parametrize("jobs", [1, 2, 3, 6])
def test_chunk_pieces_come_in_chunk_order(monkeypatch, jobs):
    monkeypatch.setattr(grid, "cores", lambda: jobs)
    state = _Reports()

    def render(start, stop):
        k = start // CHUNK_ROWS
        state.made.append(k)
        return f"{k}a{k}b"

    pieces = chunk_pieces(5 * CHUNK_ROWS, render, state)
    n = min(jobs, 5)  # the processes that make chunks
    # every chunk comes whole, as one piece, from any process
    assert list(pieces) == [f"{k}a{k}b" for k in range(5)]
    assert state.made == list(range(0, 5, n))
    assert state.merged == [",".join(map(str, range(c, 5, n)))
                            for c in range(1, n)]
    _no_child_left()


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("nodes", [1, CHUNK_ROWS - 1, CHUNK_ROWS,
                                   CHUNK_ROWS + 1, 4 * CHUNK_ROWS - 1,
                                   4 * CHUNK_ROWS, 4 * CHUNK_ROWS + 1,
                                   2 * 3000])
def test_chunk_pieces_cut_the_nodes_into_whole_chunks(monkeypatch, jobs,
                                                      nodes):
    monkeypatch.setattr(grid, "cores", lambda: jobs)
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    state = _Reports()

    def render(start, stop):
        state.made.append(f"{start}-{stop}")
        return f"{start}-{stop};"

    cuts = [(start, min(start + CHUNK_ROWS, nodes))
            for start in range(0, nodes, CHUNK_ROWS)]
    assert list(chunk_pieces(nodes, render, state)) == [
        f"{start}-{stop};" for start, stop in cuts]
    n = min(jobs, len(cuts))
    assert len(forks) == n - 1
    assert state.made == [f"{start}-{stop}" for start, stop in cuts[::n]]
    assert state.merged == [",".join(f"{start}-{stop}"
                                     for start, stop in cuts[c::n])
                            for c in range(1, n)]
    _no_child_left()


def test_chunk_pieces_hold_no_list_of_chunks(monkeypatch):
    # chunk k's bounds are made from k: setting up 10**9 nodes and making
    # the first chunk traces under 1 MB, where a list of every chunk's
    # bounds would take about 190 MB
    monkeypatch.setattr(grid, "cores", lambda: 1)
    tracemalloc.start()
    try:
        pieces = chunk_pieces(10**9, lambda start, stop: f"{start}-{stop}",
                              _Reports())
        assert next(pieces) == f"0-{CHUNK_ROWS}"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        pieces.close()
    assert peak < 10**6


def test_chunk_pieces_in_a_process_that_ignores_sigchld(monkeypatch):
    # the kernel reaps the children itself, so there is none to wait for
    monkeypatch.setattr(grid, "cores", lambda: 2)
    old = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        pieces = chunk_pieces(3 * CHUNK_ROWS,
                              lambda start, stop: str(start // CHUNK_ROWS),
                              _Reports())
        assert list(pieces) == ["0", "1", "2"]
    finally:
        signal.signal(signal.SIGCHLD, old)
    _no_child_left()


# more text than a pipe of the default 64 KiB holds, as a JSON chunk of a
# grid table (about 108 KB) is
RUN_AHEAD_TEXT = 200_000


def _pipes_hold_a_mib() -> bool:
    """Whether this system gives a pipe of grid.PIPE_BYTES when asked."""
    import fcntl
    r, w = os.pipe()
    try:
        fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, grid.PIPE_BYTES)
        return fcntl.fcntl(w, fcntl.F_GETPIPE_SZ) == grid.PIPE_BYTES
    except (AttributeError, OSError):
        return False
    finally:
        os.close(r)
        os.close(w)


def _ahead_render(marker, waited):
    """Chunks of RUN_AHEAD_TEXT characters each.  The worker (chunks 1, 3,
    5) creates marker as it starts chunk 3; the parent's chunk 0 waits for
    it up to 20 s and records in waited whether it came."""
    parent = os.getpid()

    def render(start, stop):
        k = start // CHUNK_ROWS
        if os.getpid() != parent and k == 3:
            marker.touch()
        if os.getpid() == parent and k == 0 and waited is not None:
            deadline = time.monotonic() + 20.0
            while not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            waited.append(marker.exists())
        return str(k) * RUN_AHEAD_TEXT
    return render


def test_chunk_workers_run_ahead_of_the_parent(tmp_path, monkeypatch):
    # with a pipe of PIPE_BYTES the worker sends its chunk 1 whole and
    # starts chunk 3 while the parent still makes chunk 0; with a 64 KiB
    # pipe it waits in the write of chunk 1 until the parent reads it
    monkeypatch.setattr(grid, "cores", lambda: 2)
    ahead = _pipes_hold_a_mib()
    waited = []
    pieces = chunk_pieces(6 * CHUNK_ROWS,
                          _ahead_render(tmp_path / "marker",
                                        waited if ahead else None),
                          _Reports())
    assert list(pieces) == [str(k) * RUN_AHEAD_TEXT for k in range(6)]
    assert waited == ([True] if ahead else [])
    _no_child_left()


def test_chunk_pieces_with_a_refused_pipe_size(tmp_path, monkeypatch):
    # where the system refuses the pipe size, the pipe keeps its default
    # and the pieces are the same, in the same order
    import fcntl
    monkeypatch.setattr(grid, "cores", lambda: 2)
    asked = []

    def refuse(fd, command, arg=0):
        asked.append(command)
        raise OSError(errno.EPERM, os.strerror(errno.EPERM))

    monkeypatch.setattr(fcntl, "fcntl", refuse)
    pieces = chunk_pieces(6 * CHUNK_ROWS,
                          _ahead_render(tmp_path / "marker", None), _Reports())
    assert list(pieces) == [str(k) * RUN_AHEAD_TEXT for k in range(6)]
    assert asked == [fcntl.F_SETPIPE_SZ]
    _no_child_left()


def _failing_at_chunk_1(error):
    def render(start, stop):
        if start == CHUNK_ROWS:
            raise error
        return str(start // CHUNK_ROWS)
    return render


@pytest.mark.parametrize("error, raised, message", [
    (ConsistencyError("paths disagree"), ConsistencyError, "^paths disagree$"),
    (KeyError("x"), ChildProcessError,
     "^a chunk worker failed: KeyError: 'x'$"),
])
def test_chunk_worker_errors_are_raised_in_chunk_order(monkeypatch, error,
                                                       raised, message):
    monkeypatch.setattr(grid, "cores", lambda: 2)
    pieces = chunk_pieces(3 * CHUNK_ROWS, _failing_at_chunk_1(error),
                          _Reports())
    # chunk 0, then the error in place of chunk 1: no text of it
    assert next(pieces) == "0"
    with pytest.raises(raised, match=message):
        next(pieces)
    _no_child_left()
