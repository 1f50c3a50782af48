"""Sparse integer chains and matrices with exact arithmetic.

A signed combination of generators is a sparse chain, the dict {key:
nonzero coefficient}; absent keys are zero. `add_term` adds one term,
`add_chain` adds a multiple of a whole chain, and `linear_extend` applies a
map given on keys (a boundary rule, an evaluation, a matrix's columns) to a
chain. Each drops a key when its coefficient cancels, so no stored value is
ever 0. Python ints give unbounded exact arithmetic, so nothing here can
overflow or round.

A `SparseIntMatrix` stores its columns, each a chain keyed by row index:
every builder writes a boundary one column at a time, and the elimination
engine and coreduction read it that way. Rows are a derived view, built
fresh by `rows()`, and `transpose()` is built on them. A column's key order
is its builder's and need not be row order; no result here depends on it.
No stored value is 0, and a builder that writes columns by hand keeps it so.
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
    __slots__ = ("n_rows", "n_cols", "cols")

    def __init__(self, n_rows: int, n_cols: int, cols: list[dict[int, int]] | None = None):
        if n_rows < 0 or n_cols < 0:
            raise ValueError("negative dimension")
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.cols: list[dict[int, int]] = cols if cols is not None else [dict() for _ in range(n_cols)]
        if len(self.cols) != n_cols:
            raise ValueError("column list length mismatch")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dense(cls, dense: list[list[int]]) -> "SparseIntMatrix":
        n_cols = len(dense[0]) if dense else 0
        if any(len(drow) != n_cols for drow in dense):
            raise ValueError("ragged dense input")
        cols = [{r: drow[c] for r, drow in enumerate(dense) if drow[c]} for c in range(n_cols)]
        return cls(len(dense), n_cols, cols)

    @classmethod
    def identity(cls, n: int) -> "SparseIntMatrix":
        return cls(n, n, [{i: 1} for i in range(n)])

    # -- queries -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def entry(self, r: int, c: int) -> int:
        return self.cols[c].get(r, 0)

    def nnz(self) -> int:
        return sum(map(len, self.cols))

    def is_zero(self) -> bool:
        return not any(self.cols)

    def rows(self) -> list[dict[int, int]]:
        """The rows as chains keyed by column index, in column order."""
        rows: list[dict[int, int]] = [dict() for _ in range(self.n_rows)]
        for c, col in enumerate(self.cols):
            for r, v in col.items():
                rows[r][c] = v
        return rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseIntMatrix):
            return NotImplemented
        return self.shape == other.shape and self.cols == other.cols

    def __repr__(self) -> str:
        return f"SparseIntMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz()})"

    # -- algebra -----------------------------------------------------------

    def transpose(self) -> "SparseIntMatrix":
        return SparseIntMatrix(self.n_cols, self.n_rows, self.rows())

    def mul(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.n_cols != other.n_rows:
            raise ValueError("shape mismatch in mul")
        col = self.cols.__getitem__
        return SparseIntMatrix(self.n_rows, other.n_cols, [linear_extend(ocol, col) for ocol in other.cols])

    def mul_vec(self, vec: dict[int, int]) -> dict[int, int]:
        """Matrix times sparse column vector: the sum of vec[c] * column c.
        A key outside range(n_cols) raises IndexError."""
        if not all(0 <= c < self.n_cols for c in vec):
            raise IndexError("vector key outside the column range")
        return linear_extend(vec, self.cols.__getitem__)
