"""Golden synthetic datasets: the CIFAR-10 stand-in may never move a bit.

``tests/golden/data_parity.json`` pins the sha256 of the train/test
features and labels :func:`synthetic_cifar10` builds for the shapes the
end-to-end benchmark trains on (1600/800 and 800/400 at 8 px, 512/400 at
16 px, the 64/32 smoke split), plus a 4 px case — where the blur kernel
is wider than the plane, so the boundary reflects more than once — and a
non-default ``template_smoothness``.  The fixture was recorded while the
template blur was still ``scipy.ndimage.gaussian_filter``, so a green run
proves the NumPy blur that replaced it is bitwise identical on every
dataset a benchmark or a test trains on.

Re-record (only when a data change is intended) with
``PYTHONPATH=src python tests/test_data_parity.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.data import SyntheticImageClassification

GOLDEN_PATH = Path(__file__).parent / "golden" / "data_parity.json"

# case -> SyntheticImageClassification keyword arguments.  The seeds are
# benchmark member seeds (member 0 of seeds 1 and 2); noise 0.8 is
# ExperimentConfig's default.
CASES = {
    "table1_1600x800_8px": dict(num_train=1600, num_test=800, image_size=8, seed=1_000_003),
    "dense_800x400_8px": dict(num_train=800, num_test=400, image_size=8, seed=2_000_006),
    "chaos_512x400_16px": dict(num_train=512, num_test=400, image_size=16, seed=1_000_003),
    "smoke_64x32_8px": dict(num_train=64, num_test=32, image_size=8, seed=2_000_006),
    "tiny_40x20_4px": dict(num_train=40, num_test=20, image_size=4, seed=7),
    "smooth0.7_200x100_8px": dict(
        num_train=200, num_test=100, image_size=8, template_smoothness=0.7, seed=11
    ),
}


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def digests(case: str) -> dict:
    generated = SyntheticImageClassification(noise=0.8, **CASES[case])
    return {
        f"{split}_{part}": _sha256(getattr(getattr(generated, split), part))
        for split in ("train", "test")
        for part in ("features", "labels")
    }


def record() -> dict:
    golden = {"numpy": np.version.version}
    golden.update({case: digests(case) for case in CASES})
    return golden


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else None


def test_fixture_present():
    assert GOLDEN is not None, f"missing {GOLDEN_PATH}"
    assert set(CASES) <= set(GOLDEN)


@pytest.mark.golden("data_parity.json")
@pytest.mark.parametrize("case", sorted(CASES))
def test_synthetic_dataset_matches_golden(case):
    assert digests(case) == GOLDEN[case]


def test_golden_skip_fails_when_goldens_are_required(monkeypatch, golden_check):
    """The shared ``golden`` marker skips on another NumPy, and
    ``REPRO_REQUIRE_GOLDENS=1`` turns that skip into a failure."""
    golden_check("data_parity.json")  # recorded NumPy: compares
    monkeypatch.setattr(np.version, "version", "0.0.0")
    monkeypatch.delenv("REPRO_REQUIRE_GOLDENS", raising=False)
    with pytest.raises(pytest.skip.Exception):
        golden_check("data_parity.json")
    monkeypatch.setenv("REPRO_REQUIRE_GOLDENS", "1")
    with pytest.raises(pytest.fail.Exception, match="captured under numpy"):
        golden_check("data_parity.json")
    with pytest.raises(pytest.fail.Exception, match="missing"):
        golden_check("no_such_golden.json")


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
