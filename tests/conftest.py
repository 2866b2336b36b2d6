"""Shared fixtures."""

import os
from pathlib import Path

import pytest

import mvcca.neighbors


@pytest.fixture(autouse=True, scope="session")
def src_on_child_path():
    """Let child processes (``python -m mvcca.cli``) import the package from ``src``.

    pytest's ``pythonpath`` setting finds it in this process only.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture
def built_references(monkeypatch):
    """List that gets the length of every KnnReference built during the test."""
    built = []
    init = mvcca.neighbors.KnnReference.__init__

    def counting_init(self, points):
        init(self, points)
        built.append(len(self))

    monkeypatch.setattr(mvcca.neighbors.KnnReference, "__init__", counting_init)
    return built
