"""Exact linear algebra over Q(zeta_m): one fraction-free elimination behind
rank, kernels, inverses and determinants (the determinant also over any exact
ring, such as the eta-polynomials), the connected components that split a
matrix into diagonal blocks, and symplectic (Darboux) bases of subspaces.
The eigenspaces of group elements are kernels, solved in sra.group.

Pivoting is deterministic (first nonzero column, lowest row index), so every
derived basis -- and everything downstream that consumes one -- is
reproducible run to run.
"""

from __future__ import annotations

from .scalar import Cyclotomic, literal


class DegenerateRestrictionError(Exception):
    """The symplectic form restricted to a subspace is singular."""


Vector = tuple[Cyclotomic, ...]


def vec_scale(u: Vector, c: Cyclotomic) -> Vector:
    return tuple(a * c for a in u)

def vec_is_zero(u: Vector) -> bool:
    return all(a.is_zero() for a in u)

def support(u: Vector) -> list[tuple[int, Cyclotomic]]:
    """The nonzero entries of u as [(index, entry)]."""
    return [(t, a) for t, a in enumerate(u) if not a.is_zero()]

def sparse_dot(nonzero, v: Vector, zero: Cyclotomic) -> Cyclotomic:
    """u . v for u given by its support [(index, entry)]; `zero` is the
    zero of the field, the value of an empty sum."""
    acc = zero
    for t, a in nonzero:
        b = v[t]
        if not b.is_zero():
            acc = acc + a * b
    return acc


class Matrix:
    """Dense matrix of canonical cyclotomic entries, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data):
        data = tuple(data)
        if len(data) != rows * cols:
            raise ValueError("matrix data size mismatch")
        self.rows, self.cols, self.data = rows, cols, data

    @staticmethod
    def from_rows(rows_of_entries) -> "Matrix":
        rows = len(rows_of_entries)
        cols = len(rows_of_entries[0]) if rows else 0
        flat = [x for row in rows_of_entries for x in row]
        return Matrix(rows, cols, flat)

    @staticmethod
    def identity(n: int, m: int) -> "Matrix":
        one, zero = Cyclotomic.one(m), Cyclotomic.zero(m)
        return Matrix(n, n, [one if i == j else zero for i in range(n) for j in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.data[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> Vector:
        return tuple(self.data[i * self.cols + j] for i in range(self.rows))

    def order(self) -> int:
        return self.data[0].m if self.data else 1

    def embed(self, m: int) -> "Matrix":
        return Matrix(self.rows, self.cols, [x.embed(m) for x in self.data])

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix(self.rows, self.cols, [a + b for a, b in zip(self.data, other.data)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix(self.rows, self.cols, [a - b for a, b in zip(self.data, other.data)])

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [-a for a in self.data])

    def scaled(self, c: Cyclotomic) -> "Matrix":
        return Matrix(self.rows, self.cols, [a * c for a in self.data])

    def minus_scalar(self, c: Cyclotomic) -> "Matrix":
        """M - c I for a square M, subtracting on the diagonal only."""
        data = list(self.data)
        for i in range(0, len(data), self.cols + 1):
            data[i] = data[i] - c
        return Matrix(self.rows, self.cols, data)

    def __mul__(self, other: "Matrix") -> "Matrix":
        """Sparse product: each row's nonzero entries are listed once, and
        only products of two nonzero entries are formed."""
        if self.cols != other.rows:
            raise ValueError("matrix dimension mismatch")
        p = other.cols
        zero = Cyclotomic.zero(self.order())
        other_rows = [support(other.row(t)) for t in range(other.rows)]
        out = []
        for i in range(self.rows):
            acc = [zero] * p
            for t, a in enumerate(self.row(i)):
                if not a.is_zero():
                    for j, b in other_rows[t]:
                        acc[j] = acc[j] + a * b
            out.extend(acc)
        return Matrix(self.rows, p, out)

    def matvec(self, v: Vector) -> Vector:
        """Sparse product M v: the nonzero entries of v are listed once, and
        only products of two nonzero entries are formed."""
        zero = Cyclotomic.zero(self.order())
        nonzero = support(v)
        return tuple(sparse_dot(nonzero, self.row(i), zero) for i in range(self.rows))

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      [self.data[i * self.cols + j]
                       for j in range(self.cols) for i in range(self.rows)])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.data) == (other.rows, other.cols, other.data)

    def key(self):
        """Canonical key: coefficient data of all entries in row-major order."""
        return tuple(x.key() for x in self.data)

    def __repr__(self):
        rows = [" ".join(literal(self[i, j]) for j in range(self.cols))
                for i in range(self.rows)]
        return "Matrix[" + "; ".join(rows) + "]"


def _same(x):
    return x


def _by_inverse(p: Cyclotomic):
    """x -> x / p in Q(zeta_m), through one inverse of p."""
    return p.inverse().__mul__


def _echelon(rows, divide_by):
    """Fraction-free (Bareiss) row echelon form of a list of rows over an
    exact ring whose elements have `is_zero`, `+`, `-` and `*`.

    `divide_by(p)` returns the exact division x -> x / p by a pivot p: every
    quotient Bareiss elimination asks for is exact (Bareiss, Math. Comp. 22,
    1968), so rings pass exact division and fields one inverse per pivot.
    Returns (rows, pivot_cols, swap_sign); the input rows are not changed.
    Pivot rule: scan columns left to right, pick the lowest-index row with a
    nonzero entry.  Entries below each pivot are cleared, so a square input
    of rank r < n ends in n - r zero rows.
    """
    a = [list(row) for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    piv_cols = []
    sign = 1
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, nrows):
            if not a[i][c].is_zero():
                sel = i
                break
        if sel is None:
            continue
        if sel != r:
            a[r], a[sel] = a[sel], a[r]
            sign = -sign
        pivot = a[r][c]
        zero = pivot - pivot
        # exact division by the previous pivot (by 1 at the first)
        divide = divide_by(a[r - 1][piv_cols[-1]]) if r else _same
        for i in range(r + 1, nrows):
            head = a[i][c]
            if head.is_zero():
                for j in range(c + 1, ncols):
                    if not a[i][j].is_zero():
                        a[i][j] = divide(a[i][j] * pivot)
                continue
            a[i][c] = zero
            for j in range(c + 1, ncols):
                a[i][j] = divide(a[i][j] * pivot - a[r][j] * head)
        piv_cols.append(c)
        r += 1
        if r == nrows:
            break
    return a, piv_cols, sign


def rank(mat: Matrix) -> int:
    return len(_echelon(map(mat.row, range(mat.rows)), _by_inverse)[1])


def fraction_free_det(rows, divide_by, one):
    """Determinant of a square list of rows over an exact ring, by `_echelon`
    with the exact division `divide_by`; `one` is the determinant of the
    empty matrix."""
    if not rows:
        return one
    a, _, sign = _echelon(rows, divide_by)
    return a[-1][-1] if sign > 0 else -a[-1][-1]


def components(rows) -> list[list[int]]:
    """Connected components of the nonzero pattern of a square list of rows:
    i and j are joined when entry (i, j) or (j, i) is nonzero.  Each component
    is a sorted index list, and the components are ordered by least index.

    Permuting rows and columns alike so that each component is contiguous
    makes the matrix block diagonal, and det(P M P^T) = det M, so the
    determinant is the product of the determinants of the blocks
    [[rows[i][j] for j in c] for i in c].
    """
    n = len(rows)
    neighbours = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if not x.is_zero():
                neighbours[i].add(j)
                neighbours[j].add(i)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        block, stack = [], [start]
        while stack:
            i = stack.pop()
            block.append(i)
            for j in neighbours[i]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        out.append(sorted(block))
    return out


def det(mat: Matrix) -> Cyclotomic:
    """Determinant by fraction-free elimination with row-swap sign tracking."""
    if mat.rows != mat.cols:
        raise ValueError("determinant of a non-square matrix")
    return fraction_free_det([mat.row(i) for i in range(mat.rows)], _by_inverse,
                             Cyclotomic.one(mat.order()))


def _null_vectors(a, piv_cols, ncols: int, m: int) -> list[Vector]:
    """One null vector of the echelon rows `a` per free column, with a 1 in
    that column and 0 in the other free columns, by back substitution."""
    one, zero = Cyclotomic.one(m), Cyclotomic.zero(m)
    basis = []
    for fc in (c for c in range(ncols) if c not in piv_cols):
        sol = [zero] * ncols
        sol[fc] = one
        for r in range(len(piv_cols) - 1, -1, -1):
            pc = piv_cols[r]
            acc = zero
            for j in range(pc + 1, ncols):
                if not sol[j].is_zero() and not a[r][j].is_zero():
                    acc = acc + a[r][j] * sol[j]
            if not acc.is_zero():
                sol[pc] = -acc * a[r][pc].inverse()
        basis.append(tuple(sol))
    return basis


def kernel_basis(mat: Matrix) -> tuple[Vector, ...]:
    """Exact basis of the right null space, deterministic."""
    a, piv_cols, _ = _echelon(map(mat.row, range(mat.rows)), _by_inverse)
    return tuple(_null_vectors(a, piv_cols, mat.cols, mat.order()))


def inverse(mat: Matrix) -> Matrix:
    """Matrix inverse, read off the null space of (M | -I): the null vector
    of the free column n + j is (column j of M^-1, e_j).  M is singular iff
    a pivot falls in the -I block."""
    if mat.rows != mat.cols:
        raise ValueError("inverse of a non-square matrix")
    n = mat.rows
    m = mat.order()
    minus_one, zero = -Cyclotomic.one(m), Cyclotomic.zero(m)
    a, piv_cols, _ = _echelon([mat.row(i) + tuple(minus_one if i == j else zero for j in range(n))
                               for i in range(n)], _by_inverse)
    if piv_cols and piv_cols[-1] >= n:
        raise ZeroDivisionError("singular matrix")
    cols = _null_vectors(a, piv_cols, 2 * n, m)
    return Matrix(n, n, [cols[j][i] for i in range(n) for j in range(n)])


def form_value(omega: Matrix, u: Vector, v: Vector) -> Cyclotomic:
    """omega(u, v) = u^T Omega v."""
    return sparse_dot(support(u), omega.matvec(v), Cyclotomic.zero(omega.order()))


def darboux_basis(basis, omega: Matrix) -> list[Vector]:
    """Symplectic Gram-Schmidt: basis c_1, ..., c_2k of the span of `basis` with
    omega(c_{2i-1}, c_{2i}) = 1 and all other pairings zero.

    Deterministic for a fixed input basis.  Raises DegenerateRestrictionError
    when the restriction of omega to the subspace is singular.
    """
    pending = list(basis)
    out: list[Vector] = []
    while pending:
        c1 = pending.pop(0)
        if vec_is_zero(c1):
            raise DegenerateRestrictionError("zero vector while pairing")
        for idx, w in enumerate(pending):
            s = form_value(omega, c1, w)
            if not s.is_zero():
                break
        else:
            raise DegenerateRestrictionError(
                "symplectic form restricted to the subspace is singular")
        del pending[idx]
        c2 = vec_scale(w, s.inverse())
        rest = []
        for v in pending:
            a = form_value(omega, c2, v)
            b = form_value(omega, c1, v)
            rest.append(tuple(x + y * a - z * b for x, y, z in zip(v, c1, c2)))
        out.extend([c1, c2])
        pending = rest
    return out
