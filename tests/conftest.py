import numpy as np
import pytest
from hypothesis import settings

from minsplit import gen_affine_monotone

# property tests draw the same examples on every run and stay fast
settings.register_profile("minsplit", derandomize=True, deadline=None, max_examples=50)
settings.load_profile("minsplit")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def affine_ops(n, dim, seed, moduli=None):
    """Random affine monotone tuple plus its recorded zero."""
    inst = gen_affine_monotone(n, dim, seed, moduli=moduli)
    return inst, inst.operators()


def count_calls(monkeypatch, owner, attr):
    """Rebind ``owner.attr`` to a wrapper that records each call; returns the record."""
    calls = []
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls
