import numpy as np
import pytest

from mqret.core import C


@pytest.fixture
def lam():
    return 1e-6  # 1 um donor transition wavelength


@pytest.fixture
def omega(lam):
    return 2.0 * np.pi * C / lam


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def sommerfeld_geometries(monkeypatch):
    """Patches ``greens.halfspace_scatter_full`` to record, per call, the
    (r, r') pair of every geometry (row of its point arrays) it evaluates."""
    from mqret import greens

    full = greens.halfspace_scatter_full
    calls = []

    def counting(r, r_prime, *args, **kwargs):
        rows = [np.asarray(p, dtype=float).reshape(-1, 3) for p in (r, r_prime)]
        rows = np.broadcast_arrays(*rows)
        calls.append([(tuple(a), tuple(b)) for a, b in zip(*rows)])
        return full(r, r_prime, *args, **kwargs)

    monkeypatch.setattr(greens, "halfspace_scatter_full", counting)
    return calls
