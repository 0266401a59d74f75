import functools

import pytest

from rsadyn import build_params


@functools.lru_cache(maxsize=None)
def cached_params(n, m, j, root_index=0, bits=256):
    return build_params(n, m, j, root_index, bits)


@pytest.fixture(scope="session")
def params411():
    return cached_params(4, 1, 1)


@pytest.fixture(scope="session")
def params511():
    return cached_params(5, 1, 1)


@pytest.fixture(scope="session")
def params721():
    return cached_params(7, 2, 1)
