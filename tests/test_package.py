"""Tests for the package's top-level exports."""

from __future__ import annotations

import reinhardt


def test_every_exported_name_resolves():
    missing = [name for name in reinhardt.__all__ if not hasattr(reinhardt, name)]
    assert missing == []
    assert len(set(reinhardt.__all__)) == len(reinhardt.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from reinhardt import *", namespace)
    assert set(reinhardt.__all__) <= namespace.keys()
