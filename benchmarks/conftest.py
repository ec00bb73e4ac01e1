"""Shared infrastructure for the reproduction benchmarks.

Every benchmark regenerates one table or figure from the paper's
evaluation, prints it, and archives the rendering under
``benchmarks/results/`` (see :func:`common.results_dir`) so `pytest
benchmarks/ --benchmark-only` leaves the full set of artifacts behind.
"""

from __future__ import annotations

import pathlib

import pytest
from common import results_dir


@pytest.fixture
def archive():
    """Callable: archive(name, rendered_text) -> path, under
    :func:`common.results_dir`."""
    directory = results_dir()
    directory.mkdir(parents=True, exist_ok=True)

    def _archive(name: str, text: str) -> pathlib.Path:
        path = directory / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[archived to {path}]")
        return path

    return _archive
