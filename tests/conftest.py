"""Golden fixtures bind where they are checked.

A golden (``tests/golden/<name>.json``) pins bitwise trajectories under
the NumPy version its ``"numpy"`` key records; another NumPy build may
round differently, so a test marked ``@pytest.mark.golden("<name>.json")``
is skipped when the running NumPy differs or the fixture is missing.
With ``REPRO_REQUIRE_GOLDENS=1`` (set by the CI lane that installs the
fixtures' NumPy) that skip is a failure: the lane cannot pass without
comparing.
"""

import json
import os
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

GOLDEN_DIR = Path(__file__).parent / "golden"


@lru_cache(maxsize=None)
def golden_numpy(name: str) -> Optional[str]:
    """The NumPy version golden ``name`` was recorded under (None: missing)."""
    path = GOLDEN_DIR / name
    return json.loads(path.read_text())["numpy"] if path.exists() else None


def check_golden(name: str) -> None:
    """Skip — or, under ``REPRO_REQUIRE_GOLDENS=1``, fail — the running
    test when golden ``name`` cannot be compared on this NumPy."""
    recorded = golden_numpy(name)
    if recorded is None:
        reason = f"missing golden fixture {name}"
    elif recorded != np.version.version:
        reason = (
            f"golden fixture {name} captured under numpy {recorded}, "
            f"running {np.version.version}"
        )
    else:
        return
    if os.environ.get("REPRO_REQUIRE_GOLDENS") == "1":
        pytest.fail(f"{reason} (REPRO_REQUIRE_GOLDENS=1)", pytrace=False)
    pytest.skip(reason)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "golden(name): compares against tests/golden/<name>; skipped on "
        "another NumPy, failed instead under REPRO_REQUIRE_GOLDENS=1",
    )


def pytest_runtest_setup(item):
    for marker in item.iter_markers(name="golden"):
        check_golden(*marker.args)


@pytest.fixture
def golden_check():
    """:func:`check_golden`, for the test of the marker itself."""
    return check_golden
