"""Shared helpers for the figure/table regeneration benchmarks.

Each benchmark regenerates one of the paper's tables or figures, prints
the rendered rows/series (captured into ``bench_output.txt`` by the
harness invocation) and archives them under ``benchmarks/out/`` so
EXPERIMENTS.md can reference exact reproduced numbers.  Archival goes
through :class:`repro.obs.RunManifest`, so every artifact lands in the
uniform ``out/<name>.txt`` layout and a session-level
``bench.manifest.json`` records names, sizes, digests and the engine
configuration of the producing run.

Scenario execution goes through :mod:`repro.experiments.parallel`:
``REPRO_WORKERS=N`` fans the scenario sweeps out over N processes, and
results land in the content-addressed cache under ``benchmarks/.cache/``
so a re-run only simulates scenarios whose config changed.  Set
``REPRO_CACHE_DIR=off`` to force every scenario to simulate.
"""

from pathlib import Path

import pytest

from repro.experiments import parallel
from repro.obs import RunManifest

OUT_DIR = Path(__file__).parent / "out"
CACHE_DIR = Path(__file__).parent / ".cache"


@pytest.fixture(scope="session", autouse=True)
def scenario_engine():
    """Point the default engine at the benchmark cache (env-overridable)."""
    settings = parallel.env_settings(cache_dir=CACHE_DIR)
    # The archived figures are the faultless ones: no default fault profile.
    parallel.configure(workers=settings["workers"], cache_dir=settings["cache_dir"])
    yield
    parallel.configure(**parallel.env_settings())


@pytest.fixture(scope="session")
def out_dir() -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture(scope="session")
def bench_manifest(out_dir, scenario_engine):
    """Session manifest indexing every artifact the benchmarks archive."""
    manifest = RunManifest(
        name="bench", out_dir=out_dir, command="pytest benchmarks"
    )
    manifest.record_engine(
        workers=parallel._default_workers,
        cache_dir=str(parallel._default_cache.directory)
        if parallel._default_cache
        else None,
    )
    yield manifest
    manifest.save()


@pytest.fixture()
def archive(bench_manifest, capsys):
    """Return a writer that prints and persists a rendered result."""

    def _archive(name: str, text: str) -> None:
        print(f"\n{text}\n")
        bench_manifest.write_text(name, text)

    return _archive
