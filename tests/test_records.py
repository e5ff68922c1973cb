"""The Record subclasses: immutable, with the equality, hash, repr and
defaults each one documents."""

import copy
import math
import pickle

import pytest

from monge4.classify import classify_surface
from monge4.expr import (BinOp, Call, Neg, Num, Token, Var, compile_profile,
                         parse, tokenize)
from monge4.grid import DiscretePatch, GridResult, GridSpec, sample_grid
from monge4.patch import make_explicit
from monge4.selfcheck import CheckResult

SPEC = GridSpec(0.0, 1.0, 0.0, 1.0, 2, 3)


def _records():
    patch = make_explicit("u", "v")
    report = classify_surface(patch, SPEC)
    return [Token("number", "1", 0), Num(1.0), Var("u"), Neg(Num(1.0)),
            BinOp("add", Var("u"), Num(1.0)), Call("sin", Var("u")),
            compile_profile("exp(u)"), SPEC, sample_grid(patch, SPEC),
            DiscretePatch((0.0, 1.0), (0.0, 1.0), [[0.0, 0.0], [1.0, 1.0]]),
            report.predicates["chen"], report, patch,
            CheckResult("a", True, "d")]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_every_record_is_immutable(record):
    with pytest.raises(AttributeError):
        setattr(record, record.__slots__[0], None)
    with pytest.raises(AttributeError):
        delattr(record, record.__slots__[0])
    with pytest.raises(AttributeError):
        record.extra = None


def test_ast_nodes_compare_and_hash_without_position():
    assert Var("u", 3) == Var("u", 7)
    assert hash(Var("u", 3)) == hash(Var("u"))
    assert BinOp("add", Var("u"), Num(1.0), 5) == BinOp("add", Var("u", 2),
                                                         Num(1.0))
    assert Call("sin", Var("u"), 4) == Call("sin", Var("u"))
    assert parse(tokenize("sin(u) + 2")) == parse(tokenize(" sin( u )+2"))
    assert Var("u") != Var("v")
    assert repr(Var("u", 3)) == "Var(name='u', position=3)"


def test_nodes_of_different_types_never_compare_equal():
    x = Num(1.0)
    assert Neg(x) != Num(x)
    assert Num(1.0) != (1.0,)
    assert len({Neg(x), Num(x)}) == 2


def test_profile_compares_and_prints_by_text():
    a, b = compile_profile("exp(u)"), compile_profile("exp(u)")
    assert a.fn is not b.fn
    assert a == b and hash(a) == hash(b)
    assert a != compile_profile("exp(u) ")
    assert repr(a) == "Profile(text='exp(u)')"


def test_grid_spec_checks_what_it_is_given():
    assert GridSpec(u0=0.0, u1=1.0, v0=0.0, v1=1.0, nu=2, nv=3) == SPEC
    assert SPEC._replace(nv=4).nv == 4
    for args, message in [
            ((0.0, 1.0, 0.0, 1.0, 1, 5),
             "grid needs at least 2 nodes per axis"),
            ((0.0, math.nan, 0.0, 1.0, 5, 5), "grid bounds must be finite"),
            ((1.0, 0.0, 0.0, 1.0, 5, 5), "grid bounds must be increasing")]:
        with pytest.raises(ValueError) as err:
            GridSpec(*args)
        assert str(err.value) == message
    with pytest.raises(ValueError, match="2 nodes"):
        SPEC._replace(nu=1)
    assert repr(SPEC) == "GridSpec(u0=0.0, u1=1.0, v0=0.0, v1=1.0, nu=2, nv=3)"


@pytest.mark.parametrize("args, kwargs", [
    ((0.0, 1.0, 0.0, 1.0, 2), {}),
    ((0.0, 1.0, 0.0, 1.0, 2, 3, 4), {}),
    ((0.0, 1.0, 0.0, 1.0, 2, 3), {"nu": 2}),
    ((0.0, 1.0, 0.0, 1.0, 2, 3), {"nw": 2}),
])
def test_record_arguments_must_name_each_field_once(args, kwargs):
    with pytest.raises(TypeError):
        GridSpec(*args, **kwargs)


def test_grid_result_repr_leaves_out_rows():
    result = sample_grid(make_explicit("u", "v"), SPEC)
    assert repr(result) == f"GridResult(spec={SPEC!r})"
    assert result == GridResult(SPEC, list(result.rows))
    assert result != GridResult(SPEC, result.rows[:-1])


def test_discrete_patch_defaults():
    dp = DiscretePatch((0.0, 1.0), (0.0, 1.0), [[0.0, 0.0], [1.0, 1.0]])
    assert dp.g is None
    assert dp.source == "<memory>"


def test_patch_equals_only_itself_and_prints_no_kernel():
    a, b = make_explicit("u", "v"), make_explicit("u", "v")
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert len({a, b}) == 2
    assert "kernel" not in repr(a)
    assert repr(a) == ("MongePatch(family='explicit', exprs={'f': 'u', "
                       "'g': 'v'}, domain=None, integrability_residual=None, "
                       "gradient_warning=None)")


def test_records_copy_through_their_constructor():
    assert copy.copy(SPEC) == SPEC
    assert copy.deepcopy(Var("u", 2)).position == 2
    assert pickle.loads(pickle.dumps(BinOp("add", Var("u"), Num(1.0)))) == \
        BinOp("add", Var("u"), Num(1.0))
