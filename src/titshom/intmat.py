"""Sparse integer chains and matrices with exact arithmetic.

A signed combination of generators is a sparse chain, the dict {key:
nonzero coefficient}; absent keys are zero. `add_term` adds one term,
`add_chain` adds a multiple of a whole chain, and `linear_extend` applies a
map given on keys (a boundary rule, an evaluation, a matrix's rows) to a
chain. Each drops a key when its coefficient cancels, so no stored value is
ever 0. The rows and columns of a `SparseIntMatrix` are chains keyed by
column and row index. Python ints give unbounded exact arithmetic, so
nothing here can overflow or round.
"""

from __future__ import annotations

from typing import Callable, Hashable


def add_term(chain: dict, key: Hashable, coeff: int) -> None:
    """Add coeff * key to a sparse chain, dropping the key when it cancels."""
    if not coeff:
        return
    new = chain.get(key, 0) + coeff
    if new:
        chain[key] = new
    else:
        del chain[key]


def add_chain(dst: dict, src: dict, mult: int) -> None:
    """Add mult * src into dst, dropping keys that cancel.

    Zero entries of src and a zero mult add nothing. Each key is looked up
    once: flag keys are nested tuples, which hash again on every lookup.
    """
    if not mult:
        return
    for key, v in src.items():
        old = dst.get(key)
        if old is None:
            if v:
                dst[key] = mult * v
        else:
            new = old + mult * v
            if new:
                dst[key] = new
            else:
                del dst[key]


def linear_extend(chain: dict, op: Callable[[Hashable], dict]) -> dict:
    """Sum of coeff * op(key) over the chain, as a sparse chain."""
    out: dict = {}
    for key, coeff in chain.items():
        add_chain(out, op(key), coeff)
    return out


class SparseIntMatrix:
    __slots__ = ("n_rows", "n_cols", "rows")

    def __init__(self, n_rows: int, n_cols: int, rows: list[dict[int, int]] | None = None):
        if n_rows < 0 or n_cols < 0:
            raise ValueError("negative dimension")
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.rows: list[dict[int, int]] = rows if rows is not None else [dict() for _ in range(n_rows)]
        if len(self.rows) != n_rows:
            raise ValueError("row list length mismatch")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dense(cls, dense: list[list[int]]) -> "SparseIntMatrix":
        n_rows = len(dense)
        n_cols = len(dense[0]) if dense else 0
        m = cls(n_rows, n_cols)
        for r, drow in enumerate(dense):
            if len(drow) != n_cols:
                raise ValueError("ragged dense input")
            m.rows[r] = {c: v for c, v in enumerate(drow) if v}
        return m

    @classmethod
    def from_columns(cls, n_rows: int, columns: list[dict[int, int]]) -> "SparseIntMatrix":
        m = cls(n_rows, len(columns))
        for c, col in enumerate(columns):
            for r, v in col.items():
                if v:
                    m.rows[r][c] = v
        return m

    @classmethod
    def identity(cls, n: int) -> "SparseIntMatrix":
        m = cls(n, n)
        for i in range(n):
            m.rows[i][i] = 1
        return m

    # -- queries -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def entry(self, r: int, c: int) -> int:
        return self.rows[r].get(c, 0)

    def nnz(self) -> int:
        return sum(len(row) for row in self.rows)

    def is_zero(self) -> bool:
        return all(not row for row in self.rows)

    def column(self, c: int) -> dict[int, int]:
        return {r: row[c] for r, row in enumerate(self.rows) if c in row}

    def columns(self) -> list[dict[int, int]]:
        cols: list[dict[int, int]] = [dict() for _ in range(self.n_cols)]
        for r, row in enumerate(self.rows):
            for c, v in row.items():
                cols[c][r] = v
        return cols

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseIntMatrix):
            return NotImplemented
        return self.shape == other.shape and self.rows == other.rows

    def __hash__(self) -> int:  # pragma: no cover - matrices are not dict keys
        raise TypeError("SparseIntMatrix is unhashable")

    def __repr__(self) -> str:
        return f"SparseIntMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz()})"

    # -- algebra -----------------------------------------------------------

    def transpose(self) -> "SparseIntMatrix":
        return SparseIntMatrix(self.n_cols, self.n_rows, self.columns())

    def mul(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.n_cols != other.n_rows:
            raise ValueError("shape mismatch in mul")
        orow = other.rows.__getitem__
        return SparseIntMatrix(self.n_rows, other.n_cols, [linear_extend(row, orow) for row in self.rows])

    def mul_vec(self, vec: dict[int, int]) -> dict[int, int]:
        """Matrix times sparse column vector: the sum of vec[c] * column c."""
        return linear_extend(vec, self.columns().__getitem__)
