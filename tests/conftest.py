from collections import Counter

import numpy as np
import pytest


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counter of the ``np.linalg`` diagonalizations and Cholesky factors
    made from here on, by routine name; reset it with ``clear()``."""
    counts = Counter()
    for name in ("eigvalsh", "eigh", "cholesky"):
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


@pytest.fixture
def no_rounds(monkeypatch):
    """Every round function of the closed and the damped protocol fails
    the test if called."""
    import qbattery.lindblad as lindblad
    import qbattery.scheduler as scheduler

    def fail(*args, **kwargs):
        raise AssertionError("a round ran")

    for name in ("power_on_round", "power_off_round", "general_round"):
        monkeypatch.setattr(scheduler, name, fail)
    monkeypatch.setattr(lindblad, "integrate", fail)
