"""The split kernel (JetCode.split) against the fused one, and the grid's
exact node source, which runs the split kernel's u part once per row of
a call and its v part once per column of a source, against jet_floats at
every node."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from monge4 import patch as patch_module
from monge4 import selfcheck
from monge4.classify import (COLUMNS, exact_jets,
                             minimal_translation_family)
from monge4.expr import pretty
from monge4.grid import CHUNK_ROWS, GridSpec
from monge4.jet import DomainError
from monge4.patch import (jet_floats, make_aminov, make_explicit,
                          make_gradient, make_patch, make_translation)

from expr_reference import random_ast, random_coord


def bits(floats):
    """The floats as bytes, so that -0.0 and 0.0 differ and NaN equals NaN."""
    return b"".join(struct.pack("d", x) for x in floats)


def outcome(evaluate):
    try:
        return bits(evaluate())
    except DomainError:
        return "DomainError"


def split_jets(patch, u, v):
    u_part, v_part, mixing = patch.kernel.split
    return mixing(u_part(u), v_part(v))


# the expression templates of the benchmark's four surfaces, with
# coefficients of the kind it draws
BENCHMARK = {
    "explicit": {"f": "0.87*u^3+sin(1.13*v)+u*v", "g": "exp(0.64*u)*v+v^2"},
    "translation": {"f3": "0.87*u^2", "f4": "sin(1.13*u)",
                    "g3": "cos(0.64*v)", "g4": "0.64*v^3"},
    "aminov": {"r": "0.87*u^2+2.21"},
    "gradient": {"p": "2*0.87*u*v^2+1.13*cos(1.13*u)*v",
                 "q": "2*0.87*u^2*v+sin(1.13*u)"},
}


def _benchmark_patches():
    return [make_patch(family, exprs, (0.2, 1.5, None, None)
                       if family == "aminov" else None)
            for family, exprs in BENCHMARK.items()]


def _verify_patches(monkeypatch):
    """Every patch that the verify suite builds."""
    made = []
    make = patch_module.make_patch

    def recording(*args, **kwargs):
        made.append(make(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(patch_module, "make_patch", recording)
    selfcheck.run_all()
    monkeypatch.undo()
    return made


POINTS = [(0.3, -0.7), (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0),
          (1.0, 1.0), (-1.0, 0.5), (0.2, 1.5), (1e-200, -1e-300),
          (0.75, 6.283185307179586)]


def test_split_kernel_gives_the_fused_floats(monkeypatch):
    patches = [make_explicit("u^3+sin(v)+u*v", "exp(u)*v+v^2"),
               make_translation("sin(u)", "u^2", "log(v+2)", "v^3"),
               make_aminov("exp(u)", (-1.0, 1.0)),
               make_gradient("exp(u)*cos(v)", "-exp(u)*sin(v)"),
               minimal_translation_family(1, 0, 0, 0, 0, 0, 1, 1),
               *_benchmark_patches(), *_verify_patches(monkeypatch)]
    assert len(patches) > 20
    spec = GridSpec(-1.0, 1.5, -1.0, 6.3, 13, 11)
    points = POINTS + [(spec.u_at(i), spec.v_at(j))
                       for i in range(spec.nu) for j in range(spec.nv)]
    for patch in patches:
        fused = patch.kernel.jets
        for u, v in points:
            assert (outcome(lambda: split_jets(patch, u, v))
                    == outcome(lambda: fused(u, v))), (patch, u, v)


@settings(max_examples=300, deadline=None)
@given(random_ast, random_ast, random_coord, random_coord)
def test_split_kernel_matches_fused_on_random_expressions(f, g, u, v):
    patch = make_explicit(pretty(f), pretty(g))
    assert (outcome(lambda: split_jets(patch, u, v))
            == outcome(lambda: patch.kernel.jets(u, v)))


def test_split_parts_read_one_coordinate():
    # exp(u)*v: exp(u) is the u part's, v^2 the v part's, the product mixes
    source = make_explicit("exp(u)*v", "v^2").kernel.source
    *_, u_part, v_part, mixing = source.split("def ")
    assert "_exp(" in u_part and "_exp(" not in v_part + mixing
    assert "_int_power(" in v_part and "_int_power(" not in u_part + mixing
    assert "try:" not in mixing


def every_node(patch, spec):
    """The exact node source of every node of spec."""
    return exact_jets(patch, spec)(0, spec.nu * spec.nv)


def _flags(patch, spec):
    """Each node's DomainError text from exact_jets, and from jet_floats."""
    got, want = [], []
    for u, v, jets in every_node(patch, spec):
        try:
            expected = bits(jet_floats(patch, u, v))
        except DomainError as err:
            expected = str(err)
        got.append(str(jets) if isinstance(jets, DomainError) else bits(jets))
        want.append(expected)
    return got, want


@pytest.mark.parametrize("f, g", [
    ("log(u)", "v"),                 # a u-only statement fails on rows
    ("sqrt(v)", "u"),                # a v-only statement fails on columns
    ("log(u*v)", "u"),               # a mixed statement fails
    ("log(v)+log(u)", "u"),          # both parts fail
    ("log(u)+sqrt(v)", "u*v"),
    ("u^v", "v^u"),                  # variable powers, in the if block
    ("(0-2)^(u-u)", "1/v"),
    ("log(0-1)", "u"),               # a constant statement fails everywhere
    ("1/u", "u*v"),
])
def test_grid_domain_errors_are_jet_floats_errors(f, g):
    spec = GridSpec(-1.0, 1.0, -1.0, 1.0, 9, 11)
    got, want = _flags(make_explicit(f, g), spec)
    assert got == want
    assert any(isinstance(x, str) for x in want)


@pytest.mark.parametrize("patch", [
    make_aminov("u^2+1", (0.2, 0.9)),
    make_aminov("log(u)+2", (0.5, 1.0), (0.0, 3.0)),
    make_explicit("u^2", "log(v+2)", (-0.5, 0.5, -0.25, 0.75)),
    make_explicit("u^3", "v^2", (None, None, 0.0, 1.0)),
    make_translation("u^2", "sin(u)", "cos(v)", "v^3", (-0.6, 0.6, -0.8, 0.2)),
], ids=["aminov-u", "aminov-uv", "explicit", "explicit-v", "translation"])
def test_grid_rows_and_columns_outside_the_domain(patch):
    # the grid is wider than the domain: whole rows and columns are outside
    spec = GridSpec(-1.0, 1.5, -1.0, 4.0, 11, 9)
    got, want = _flags(patch, spec)
    assert got == want
    assert sum("outside patch domain" in x for x in want
               if isinstance(x, str)) > 9


def _counted(patch):
    """The patch with its split kernel's u and v parts counted in calls."""
    calls = {"u": 0, "v": 0}
    u_part, v_part, mixing = patch.kernel.split

    def counted(name, part):
        def run(x):
            calls[name] += 1
            return part(x)
        return run

    return patch._replace(kernel=patch.kernel._replace(
        split=(counted("u", u_part), counted("v", v_part), mixing))), calls


def test_exact_jets_runs_each_part_once_per_row_and_column():
    patch, calls = _counted(make_explicit("exp(u)*v", "sin(v)+u"))
    spec = GridSpec(-1.0, 1.0, -1.0, 1.0, 7, 5)
    # per call of a new source, once per row index and column index that
    # the range meets
    for start, stop, rows, columns in ((0, 35, 7, 5), (3, 4, 1, 1),
                                       (3, 12, 3, 5), (5, 10, 1, 5),
                                       (9, 11, 2, 2), (12, 12, 0, 0)):
        calls.update(u=0, v=0)
        assert [bits(j) for *_, j in exact_jets(patch, spec)(start, stop)] \
            == [bits(jet_floats(patch, spec.u_at(k // 5), spec.v_at(k % 5)))
                for k in range(start, stop)]
        assert calls == {"u": rows, "v": columns}


def test_exact_source_keeps_the_v_part_of_each_column_across_calls():
    patch, calls = _counted(make_explicit("exp(u)*v", "sin(v)+u"))
    # the chunks one process makes of a grid, every other one: the u part
    # runs once per row of each chunk, the v part once per column in all
    spec = GridSpec(-1.0, 1.0, -1.0, 1.0, 13, 11)
    source = exact_jets(patch, spec)
    cuts = [(start, min(start + 4, 143)) for start in range(0, 143, 8)]
    assert [bits(j) for start, stop in cuts for *_, j in source(start, stop)] \
        == [bits(jet_floats(patch, spec.u_at(k // 11), spec.v_at(k % 11)))
            for start, stop in cuts for k in range(start, stop)]
    assert calls == {"u": sum(len(list(spec.spans(*cut))) for cut in cuts),
                     "v": 11}
    # a thin grid: the source keeps at most COLUMNS columns, so walking the
    # first COLUMNS + CHUNK_ROWS columns again runs the v part at least
    # CHUNK_ROWS times; the columns of the last chunk are still kept
    thin = GridSpec(-1.0, 1.0, -1.0, 1.0, 2, 10**6)
    source = exact_jets(patch, thin)
    walked = COLUMNS + CHUNK_ROWS
    cuts = [(start, start + CHUNK_ROWS) for start in range(0, walked,
                                                           CHUNK_ROWS)]
    calls.update(v=0)
    for start, stop in cuts:
        assert len(list(source(start, stop))) == CHUNK_ROWS
    assert calls["v"] == walked
    calls.update(v=0)
    list(source(*cuts[-1]))
    assert calls["v"] == 0
    for start, stop in cuts:
        list(source(start, stop))
    assert calls["v"] >= walked - COLUMNS
