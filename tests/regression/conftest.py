"""Engine configuration for the tier-2 golden regression suite.

Golden runs re-execute the benchmark harness's experiment invocations;
pointing the engine at the shared content-addressed cache means a
baseline check only simulates scenarios whose config (or the codec)
changed since the cache was filled.
"""

from pathlib import Path

import pytest

from repro.experiments import parallel

REPO_ROOT = Path(__file__).resolve().parents[2]
CACHE_DIR = REPO_ROOT / "benchmarks" / ".cache"
BASELINES_PATH = REPO_ROOT / "benchmarks" / "baselines.json"


@pytest.fixture(scope="session", autouse=True)
def golden_engine():
    """Use the benchmark cache (env-overridable) for golden runs."""
    settings = parallel.env_settings(cache_dir=CACHE_DIR)
    # The baselines pin faultless figures: no default fault profile.
    parallel.configure(workers=settings["workers"], cache_dir=settings["cache_dir"])
    yield
    parallel.configure(**parallel.env_settings())
