import functools
import os
from pathlib import Path

import pytest

from rsadyn import build_params

# pytest's `pythonpath` setting reaches this process only: the CLI children
# the tests start would import an installed rsadyn, or none, without this
SRC = Path(__file__).resolve().parent.parent / "src"
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))


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
