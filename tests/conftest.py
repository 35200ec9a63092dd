import pytest
import scipy.linalg
from hypothesis import settings

settings.register_profile("ci", derandomize=True, max_examples=50, deadline=None)
settings.load_profile("ci")


@pytest.fixture
def factor_count(monkeypatch):
    """List that grows by one on every scipy.linalg.cholesky_banded call."""
    calls = []
    real = scipy.linalg.cholesky_banded

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cholesky_banded", counted)
    return calls
