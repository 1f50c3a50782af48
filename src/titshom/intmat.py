"""Sparse integer matrices with exact arithmetic.

Rows are dicts keyed by column index; absent keys are zero. Python ints give
unbounded exact arithmetic, so nothing here can overflow or round.
"""

from __future__ import annotations


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
        t = SparseIntMatrix(self.n_cols, self.n_rows)
        for r, row in enumerate(self.rows):
            for c, v in row.items():
                t.rows[c][r] = v
        return t

    def mul(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.n_cols != other.n_rows:
            raise ValueError("shape mismatch in mul")
        out = SparseIntMatrix(self.n_rows, other.n_cols)
        orows = other.rows
        for r, row in enumerate(self.rows):
            acc: dict[int, int] = {}
            for k, v in row.items():
                for c, w in orows[k].items():
                    s = acc.get(c, 0) + v * w
                    if s:
                        acc[c] = s
                    elif c in acc:
                        del acc[c]
            out.rows[r] = acc
        return out

    def mul_vec(self, vec: dict[int, int]) -> dict[int, int]:
        """Matrix times sparse column vector (keys are column indices)."""
        acc: dict[int, int] = {}
        for r, row in enumerate(self.rows):
            s = 0
            if len(row) <= len(vec):
                for c, v in row.items():
                    w = vec.get(c)
                    if w is not None:
                        s += v * w
            else:
                for c, w in vec.items():
                    v = row.get(c)
                    if v is not None:
                        s += v * w
            if s:
                acc[r] = s
        return acc
