"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
import os
import sqlite3
from contextlib import closing

import pytest

from repro.core import regular_mesh_config, waw_wap_config
from repro.geometry import Coord, Mesh
from repro.service.store import DB_FILE


@pytest.fixture
def mesh4() -> Mesh:
    """A 4x4 mesh, the workhorse of most unit tests."""
    return Mesh(4, 4)


@pytest.fixture
def mesh8() -> Mesh:
    """The evaluated 8x8 mesh."""
    return Mesh(8, 8)


@pytest.fixture
def memory_node() -> Coord:
    """The memory-controller node of the evaluated system."""
    return Coord(0, 0)


@pytest.fixture
def regular4():
    """Regular design point on a 4x4 mesh."""
    return regular_mesh_config(4)


@pytest.fixture
def waw4():
    """WaW+WaP design point on a 4x4 mesh."""
    return waw_wap_config(4)


@pytest.fixture
def regular8():
    """Regular design point on the evaluated 8x8 mesh."""
    return regular_mesh_config(8)


@pytest.fixture
def waw8():
    """WaW+WaP design point on the evaluated 8x8 mesh."""
    return waw_wap_config(8)


class StoreRows:
    """Raw rows of a result store's database, read and written the way
    another program (or an older or broken writer) would."""

    @staticmethod
    def _connect(root):
        return closing(sqlite3.connect(os.path.join(str(root), DB_FILE), isolation_level=None))

    def plant(self, root, digest, envelope) -> None:
        """Write ``envelope`` (any SQLite value) as ``digest``'s row."""
        with self._connect(root) as db:
            db.execute(
                "INSERT OR REPLACE INTO entries (digest, envelope) VALUES (?, ?)",
                (digest, envelope),
            )

    def text(self, root, digest):
        """The stored JSON of ``digest``'s row (None when there is none)."""
        with self._connect(root) as db:
            row = db.execute("SELECT envelope FROM entries WHERE digest = ?", (digest,)).fetchone()
        return row[0] if row else None

    def count(self, root) -> int:
        with self._connect(root) as db:
            return db.execute("SELECT count(*) FROM entries").fetchone()[0]

    def edit(self, root, digest, section, key, value) -> None:
        """Overwrite one field of a stored envelope in place."""
        envelope = json.loads(self.text(root, digest))
        envelope[section][key] = value
        self.plant(root, digest, json.dumps(envelope))


@pytest.fixture
def store_rows() -> StoreRows:
    return StoreRows()
