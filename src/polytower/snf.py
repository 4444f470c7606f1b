"""Exact integer matrix routines: sparse elimination, Smith normal form and
solving.

`eliminate` is the one elimination routine.  It keeps a matrix as columns
of `{row: value}` dicts with an index of the columns meeting each row, takes
unit pivots first (choosing the row with fewest entries, to limit fill) and
falls back to Euclid steps on a least-magnitude entry only when no unit is
left.  The pivots it finds are the invariant factors, in the divisibility
chain d1 | d2 | ...  It records only the transforms a caller reads: by
default none, so a rank or the invariant factors cost no fill-in of a
transform; the column transform V on request, whose columns without a pivot
are a basis of the kernel; and the row transform U for the dense Smith
normal form (Dumas, Saunders and Villard, On efficient sparse integer
matrix Smith normal form computations, 2001).

Dense matrices elsewhere in the package are lists of lists of unbounded
Python ints.
"""
from __future__ import annotations

from .records import Record


def zeros(rows: int, cols: int) -> list:
    return [[0] * cols for _ in range(rows)]


def mat_vec(a: list, v: list) -> list:
    return [sum(ai[j] * v[j] for j in range(len(v)) if v[j]) for ai in a]


# ---------------------------------------------------------------------------
# sparse vectors: {index: nonzero int}


def axpy(target: dict, c: int, source: dict) -> None:
    """target += c * source, in place; c must be non-zero."""
    for i, a in source.items():
        v = target.get(i, 0) + c * a
        if v:
            target[i] = v
        else:
            del target[i]


def combine(vectors: list, coefficients: dict) -> dict:
    """The sparse vector sum of coefficients[j] * vectors[j]."""
    out: dict = {}
    for j, c in coefficients.items():
        axpy(out, c, vectors[j])
    return out


def transpose_sparse(vectors: list, length: int) -> list:
    """Rows of a matrix given as columns (or the other way round)."""
    out: list = [{} for _ in range(length)]
    for j, vec in enumerate(vectors):
        for i, a in vec.items():
            out[i][j] = a
    return out


def sparse_columns(matrix: list, cols: int) -> list:
    """Sparse columns of a dense matrix with `cols` columns."""
    return [{i: row[j] for i, row in enumerate(matrix) if row[j]} for j in range(cols)]


def dense_rows(vectors: list, length: int) -> list:
    """Dense rows from sparse rows of the given length."""
    out = zeros(len(vectors), length)
    for row, vec in zip(out, vectors):
        for i, a in vec.items():
            row[i] = a
    return out


# ---------------------------------------------------------------------------
# elimination


class Reduction(Record):
    """U * A * V is zero except at the pivots (row, col, d), where it is d.

    Pivots are listed in the order found, with d > 0 and d1 | d2 | ...  V
    and U are recorded only on request, and no inverse is.  A column that
    holds no pivot is a kernel vector of A when multiplied by V.
    """

    pivots: list
    cols: int
    right: list | None  # V, as columns
    left: list | None  # U, as rows

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def free_columns(self) -> list:
        """Columns without a pivot, in increasing order."""
        used = {j for _, j, _ in self.pivots}
        return [j for j in range(self.cols) if j not in used]


def eliminate(columns: list, rows: int, right: bool = False, left: bool = False) -> Reduction:
    """Reduce the matrix whose j-th column is the sparse dict columns[j].

    `right` records V, `left` records U.  Every pivot is isolated
    by column operations (clearing its row) and row operations (clearing its
    column); a row operation only has to be applied for real when a pivot
    does not divide its column, because a cleared pivot row touches no other
    column.
    """
    cols = [dict(c) for c in columns]
    n = len(cols)
    meets: list = [set() for _ in range(rows)]  # columns with an entry in each row
    for j, col in enumerate(cols):
        for i in col:
            meets[i].add(j)
    v = [{j: 1} for j in range(n)] if right else None
    u = [{i: 1} for i in range(rows)] if left else None
    pivots: list = []

    def add_col(src, dst, c):
        target = cols[dst]
        for i, a in cols[src].items():
            old = target.get(i)
            if old is None:
                target[i] = c * a
                meets[i].add(dst)
            elif old + c * a:
                target[i] = old + c * a
            else:
                del target[i]
                meets[i].discard(dst)
        if right:
            axpy(v[dst], c, v[src])

    def add_row(src, dst, c):
        for j in list(meets[src]):
            col = cols[j]
            value = col.get(dst, 0) + c * col[src]
            if value:
                if dst not in col:
                    meets[dst].add(j)
                col[dst] = value
            else:
                del col[dst]
                meets[dst].discard(j)
        if left:
            axpy(u[dst], c, u[src])

    def retire(i, j):
        """Clear row i against the pivot at (i, j), which divides the row,
        and record the pivot."""
        a = cols[j][i]
        for l in list(meets[i]):
            if l != j:
                add_col(j, l, -(cols[l][i] // a))
        col = cols[j]
        cols[j] = {}
        for t, b in col.items():
            meets[t].discard(j)
            if left and t != i:
                axpy(u[t], -(b // a), u[i])
        if a < 0:
            if right:
                v[j] = {r: -x for r, x in v[j].items()}
            elif left:
                u[i] = {r: -x for r, x in u[i].items()}
        pivots.append((i, j, abs(a)))

    def isolate(i, j, pending):
        """Euclid steps until the entry at (i, j) divides its row, its column
        and every other entry; returns the final pivot position."""
        while True:
            a = cols[j][i]
            for l in list(meets[i]):
                if l != j:
                    q = cols[l][i] // a
                    if q:
                        add_col(j, l, -q)
            rest = [l for l in meets[i] if l != j]
            if rest:
                j = min(rest, key=lambda l: (abs(cols[l][i]), l))
                continue
            for t in [t for t in cols[j] if t != i]:
                q = cols[j][t] // a
                if q:
                    add_row(i, t, -q)
            rest = [t for t in cols[j] if t != i]
            if rest:
                i = min(rest, key=lambda t: (abs(cols[j][t]), t))
                continue
            bad = next(
                (t for l in pending if l != j for t, b in cols[l].items() if b % a),
                None,
            )
            if bad is None:
                return i, j
            add_row(bad, i, 1)

    pending = [j for j in range(n) if cols[j]]
    while pending:
        found = False
        for j in pending:
            best = None
            for i, a in cols[j].items():
                if (a == 1 or a == -1) and (best is None or len(meets[i]) < len(meets[best])):
                    best = i
            if best is not None:
                retire(best, j)
                found = True
        pending = [j for j in pending if cols[j]]
        if pending and not found:
            _, j, i = min((abs(a), j, i) for j in pending for i, a in cols[j].items())
            retire(*isolate(i, j, pending))
            pending = [j for j in pending if cols[j]]
    return Reduction(pivots, n, v, u)


# ---------------------------------------------------------------------------
# dense interface


class SmithForm(Record):
    """S = U * A * V with U, V unimodular and S diagonal, d1 | d2 | ..."""

    diagonal: list
    rank: int
    left: list  # U, rows x rows
    right: list  # V, cols x cols
    rows: int
    cols: int


def _width(matrix: list, cols: int | None) -> int:
    return cols if cols is not None else (len(matrix[0]) if matrix else 0)


def smith_normal_form(matrix: list, cols: int | None = None) -> SmithForm:
    m = len(matrix)
    n = _width(matrix, cols)
    red = eliminate(sparse_columns(matrix, n), m, right=True, left=True)
    pivot_rows = [i for i, _, _ in red.pivots]
    taken = set(pivot_rows)
    row_order = pivot_rows + [i for i in range(m) if i not in taken]
    col_order = [j for _, j, _ in red.pivots] + red.free_columns()
    left = dense_rows([red.left[i] for i in row_order], m)
    right = dense_rows(transpose_sparse([red.right[j] for j in col_order], n), n)
    diagonal = [d for _, _, d in red.pivots] + [0] * (min(m, n) - red.rank)
    return SmithForm(diagonal=diagonal, rank=red.rank, left=left, right=right, rows=m, cols=n)


def solve_matrix(matrix: list, rhs_columns: list, cols: int | None = None) -> list | None:
    """Solve A X = B columnwise; B given as a list of column vectors.  None
    when some column has no integer solution."""
    form = smith_normal_form(matrix, cols)
    out = []
    for b in rhs_columns:
        y = mat_vec(form.left, b)
        xprime = [0] * form.cols
        for i in range(form.rows):
            d = form.diagonal[i] if i < len(form.diagonal) else 0
            if d:
                if y[i] % d:
                    return None
                xprime[i] = y[i] // d
            elif y[i]:
                return None
        out.append(mat_vec(form.right, xprime))
    return out
