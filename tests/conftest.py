"""Shared fixtures."""

import pytest

import mvcca.neighbors


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
