import copy
import functools
import random

import pytest

from phigamma import Context, FieldSpec, cocycle, gflinalg, make_field, series, tate
from phigamma.cocycle import _extent
from phigamma.field import default_modulus


_CTX_CACHE = {}


def ctx_for(p, f, m=None, **kw):
    m = m or f
    key = (p, f, m, tuple(sorted(kw.items())))
    if key not in _CTX_CACHE:
        field = make_field(FieldSpec(p, f, m, default_modulus(p, m)))
        _CTX_CACHE[key] = Context(field, **kw)
    return _CTX_CACHE[key]


def empty_caches(monkeypatch):
    """Empty every module-level cache of the program until the test ends: the series
    registry and fill orders of ``tate``, the bases, operator columns and principal parts
    of ``cocycle``, the ``gflinalg`` contexts and the Pascal blocks of ``series``."""
    for mod, name in [
        (tate, "_REGISTRY"),
        (tate, "_FILL_ORDERS"),
        (cocycle, "_BASIS_CACHE"),
        (cocycle, "_COLUMN_CACHE"),
        (cocycle, "_PRINCIPAL_PARTS"),
        (gflinalg, "_CACHE"),
    ]:
        monkeypatch.setattr(mod, name, {})
    monkeypatch.setattr(series, "_pascal_block", functools.lru_cache(maxsize=None)(series._pascal_block.__wrapped__))


@pytest.fixture
def fresh_caches(monkeypatch):
    """Every module-level cache emptied for one test and restored after it, so that a
    test which counts builds meets no entry that an earlier test left."""
    empty_caches(monkeypatch)


@pytest.fixture
def rng():
    return random.Random(20240811)


@pytest.fixture(scope="session")
def ctx31():
    return ctx_for(3, 1)


@pytest.fixture(scope="session")
def ctx32():
    return ctx_for(3, 2)


@pytest.fixture(scope="session")
def ctx51():
    return ctx_for(5, 1)


@pytest.fixture(scope="session")
def ctx52():
    return ctx_for(5, 2)


@pytest.fixture(scope="session")
def ctx21():
    return ctx_for(2, 1)


@pytest.fixture(scope="session")
def ctx22():
    return ctx_for(2, 2)


def ref_op_lambda_gamma(ctx, gamma, sigma, s, out_order=None):
    """(lambda_gamma^sigma * gamma - 1)(s) as series arithmetic: one gamma action, one
    series product with lambda^sigma; the reference for ``Context.op_lambda_gamma``."""
    img = ctx.gamma_act_series(gamma, s, out_order)
    out = ctx.lambda_pow(gamma, sigma) * img - s
    return out if out_order is None else out.truncate(out_order)


def sub_basis(basis, keep):
    """A copy of a ``ModuleBasis`` with only the elements at the indices ``keep``,
    their extent, and no span plans."""
    sub = copy.copy(basis)
    sub.elements = [basis.elements[k] for k in keep]
    sub.labels = tuple(basis.labels[k] for k in keep)
    sub.extent = _extent(basis.module, sub.elements)
    sub._residual_cache = {}
    return sub
