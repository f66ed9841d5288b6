import os

import pytest

from eosnet import cli


@pytest.fixture(autouse=True)
def _blas_environment():
    """``main`` pins BLAS for ``train`` and ``evaluate`` in ``os.environ``;
    put the variables back as they were after each test."""
    saved = {var: os.environ.get(var) for var in cli._BLAS_THREAD_VARS}
    yield
    for var, value in saved.items():
        if value is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = value
