import pytest
import scipy.linalg.lapack
from hypothesis import settings

from hsnl import symbols

settings.register_profile("ci", derandomize=True, max_examples=50, deadline=None)
# `pytest --hypothesis-profile=thorough` overrides the ci profile loaded
# below; CI runs tests/test_kernels.py and the CLI contract test under it
# as a step of its own
settings.register_profile("thorough", derandomize=True, max_examples=1000,
                          deadline=None)
settings.load_profile("ci")


@pytest.fixture
def factor_count(monkeypatch):
    """List that grows by one on every LAPACK dpbtrf call, the banded
    Cholesky factorization that fem1d._factor makes."""
    calls = []
    real = scipy.linalg.lapack.dpbtrf

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf", counted)
    return calls


@pytest.fixture(autouse=True)
def empty_symbol_memo():
    """Every test starts with an empty symbol-engine memo, so a test that
    patches the engine sees its batches evaluated, not recalled."""
    symbols._MEMO.clear()
