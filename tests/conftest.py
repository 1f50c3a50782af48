"""Fixtures shared by the test modules."""

import pytest

from titshom import complexes
from titshom.intmat import SparseIntMatrix


@pytest.fixture
def matrix_widths(monkeypatch) -> list[int]:
    """Column counts of the matrices `complexes` allocates, in order."""
    widths: list[int] = []

    class Recorded(SparseIntMatrix):
        __slots__ = ()

        def __init__(self, n_rows, n_cols, rows=None):
            widths.append(n_cols)
            super().__init__(n_rows, n_cols, rows)

    monkeypatch.setattr(complexes, "SparseIntMatrix", Recorded)
    return widths
