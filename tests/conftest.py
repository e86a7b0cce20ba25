import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture
def force_ingest(monkeypatch):
    """``force_ingest("ray" | "driver")`` patches the ingest gate
    (rollup_pipeline.DRIVER_INGEST_MAX_BYTES and DRIVER_SCRAPE_MAX_BYTES)
    so that every later ingest in the test, transcripts and scrape,
    runs on that executor; "driver" also reports the 1-CPU session the
    gate needs (``session_cpus``, as tests/test_cli.py patches it)."""
    import vertex_ray.pipelines.rollup_pipeline as rp

    real_cpus = rp.session_cpus

    def force(executor: str) -> None:
        driver = executor == "driver"
        for gate in ("DRIVER_INGEST_MAX_BYTES", "DRIVER_SCRAPE_MAX_BYTES"):
            monkeypatch.setattr(rp, gate, 2**62 if driver else 0)
        monkeypatch.setattr(rp, "session_cpus",
                            (lambda: 1) if driver else real_cpus)

    return force


@pytest.fixture
def seal_dies(monkeypatch):
    """``seal_dies()`` makes the next ``seal`` die inside the commit: its
    ``finalize_stage`` renames the set's first stage into place, then
    raises on the second stage's rename. Later renames run as usual."""
    from vertex_ray.state import checkpoint, fsio

    real = fsio.rename

    def arm() -> None:
        sealed = []

        def rename(src: str, dst: str) -> None:
            if src.endswith(checkpoint.PARTS):
                if sealed:
                    monkeypatch.setattr(fsio, "rename", real)
                    raise RuntimeError("killed in seal")
                sealed.append(dst)
            real(src, dst)

        monkeypatch.setattr(fsio, "rename", rename)

    return arm
