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
