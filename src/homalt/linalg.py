"""Exact rational scalars, vectors and small dense matrices.

Everything downstream works over Q.  Scalars are fractions.Fraction;
they appear at the boundaries: parsing, construction from user data,
and the values that reports print.

Inside, a Vector is a tuple of integer numerators ``nums`` over one
common denominator ``den``, kept canonical: den > 0 and
gcd(den, *nums) == 1, so the zero vector has den == 1.  Equal vectors
have equal (nums, den), and == and hash compare integers.  Vector
arithmetic builds its results directly in that form; only the public
constructor Vector(entries) coerces entries through as_scalar, and
entries, indexing, iteration and repr hand out Scalars.

A Matrix keeps its entries as Scalars in ``data`` and caches the same
form for the whole table (integer rows over one common denominator,
plus each row's nonzero entries), so vec_mat, mat_vec and mat_mul are
integer loops that skip zeros and pay one gcd per result.  A product's
``data`` is built only when something reads it; the other Matrix
operations work on ``data``.

Conventions: vectors are coordinate rows, matrices act on the right
(coords of f(x) are x.coords * M_f), and kernel_basis(m) returns the
*column* kernel, i.e. vectors v with m @ v = 0.  Callers that need the
row kernel pass the transpose.
"""

import re
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

Scalar = Fraction


def qq(p, q=1):
    """Exact rational p/q."""
    return Fraction(p, q)


ZERO = qq(0)
ONE = qq(1)

_SCALAR_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def as_scalar(x):
    """Coerce an int, Scalar or 'p/q' string to a Scalar."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, int):
        return qq(x)
    if isinstance(x, str):
        return parse_scalar(x)
    raise ValueError("cannot interpret %r as an exact rational" % (x,))


def parse_scalar(s):
    """Parse 'p' or 'p/q' (q > 0) into a Scalar.

    >>> parse_scalar("-3/6") == qq(-1, 2)
    True
    """
    t = s.strip()
    if not _SCALAR_RE.match(t):
        raise ValueError("bad rational literal %r (expected p or p/q)" % (s,))
    if "/" in t:
        p, q = t.split("/")
        if int(q) == 0:
            raise ValueError("bad rational literal %r (zero denominator)" % (s,))
        return qq(int(p), int(q))
    return qq(int(t))


def format_scalar(x):
    """Inverse of parse_scalar: 'p' when the denominator is 1, else 'p/q'."""
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def _clear(scalars):
    """(integer numerators, common denominator) of reduced Scalars.

    The denominator is the lcm of theirs, which already makes the pair
    canonical: a prime dividing it divides some entry's denominator to
    the full power, and that entry's numerator is not divisible by it.
    """
    den = lcm(*(a.denominator for a in scalars))
    return [a.numerator * (den // a.denominator) for a in scalars], den


def _vec(nums, den):
    """A Vector from a canonical (nums tuple, den) pair, unchecked."""
    v = object.__new__(Vector)
    v.nums = nums
    v.den = den
    return v


def _reduced(nums, den):
    """A canonical Vector equal to nums/den, for den > 0."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            return _vec(tuple(n // g for n in nums), den // g)
    return _vec(tuple(nums), den)


class Vector:
    """Immutable row of rationals: integer ``nums`` over one ``den``."""

    __slots__ = ("nums", "den")

    def __init__(self, entries):
        nums, self.den = _clear([as_scalar(e) for e in entries])
        self.nums = tuple(nums)

    @staticmethod
    def zero(n):
        return _vec((0,) * n, 1)

    @staticmethod
    def unit(n, i):
        return _vec(tuple(int(j == i) for j in range(n)), 1)

    @staticmethod
    def from_ints(nums, den):
        """The Vector nums/den for integer nums and den > 0, reduced."""
        return _reduced(nums, den)

    @property
    def entries(self):
        den = self.den
        return tuple(Fraction(a, den) for a in self.nums)

    def __len__(self):
        return len(self.nums)

    def __getitem__(self, i):
        return Fraction(self.nums[i], self.den)

    def __iter__(self):
        return iter(self.entries)

    def __add__(self, other):
        assert len(self) == len(other)
        d, e = self.den, other.den
        if d == e:
            return _reduced([a + b for a, b in zip(self.nums, other.nums)], d)
        return _reduced([a * e + b * d for a, b in zip(self.nums, other.nums)], d * e)

    def __sub__(self, other):
        assert len(self) == len(other)
        d, e = self.den, other.den
        if d == e:
            return _reduced([a - b for a, b in zip(self.nums, other.nums)], d)
        return _reduced([a * e - b * d for a, b in zip(self.nums, other.nums)], d * e)

    def __neg__(self):
        return _vec(tuple(-a for a in self.nums), self.den)

    def scale(self, c):
        c = as_scalar(c)
        p = c.numerator
        return _reduced([p * a for a in self.nums], c.denominator * self.den)

    __rmul__ = scale

    def dot(self, other):
        assert len(self) == len(other)
        return Fraction(sum(a * b for a, b in zip(self.nums, other.nums)), self.den * other.den)

    def is_zero(self):
        return not any(self.nums)

    def __eq__(self, other):
        return isinstance(other, Vector) and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self):
        return "Vector(%s)" % (", ".join(format_scalar(a) for a in self.entries),)


def linear_combination(terms, n):
    """Exact sum of p/q * v over (p, q, v) in terms, as a Vector of length n.

    p and q > 0 are ints and v a Vector.  The sum runs on integer
    numerators over one running common denominator and reduces once at
    the end, so no Vector is built per term.
    """
    acc = [0] * n
    den = 1
    for p, q, v in terms:
        d = q * v.den
        if d != den:
            common = lcm(den, d)
            if common != den:
                f = common // den
                acc = [a * f for a in acc]
                den = common
            p *= den // d
        for k, a in enumerate(v.nums):
            if a:
                acc[k] += p * a
    return _reduced(acc, den)


def _sparse(nums):
    return tuple(tuple((j, a) for j, a in enumerate(row) if a) for row in nums)


def _matrix(nums, den):
    """The Matrix nums/den from a tuple of integer rows, unchecked.

    Its Scalar ``data`` is built only when something reads it.
    """
    m = object.__new__(Matrix)
    m._data = None
    m._ints = (nums, den, _sparse(nums))
    m.rows = len(nums)
    m.cols = len(nums[0]) if nums else 0
    return m


def _reduced_matrix(rows, den):
    """The Matrix rows/den from lists of ints and den > 0, reduced."""
    if den != 1:
        g = gcd(den, *chain.from_iterable(rows))
        if g != 1:
            return _matrix(tuple(tuple(a // g for a in row) for row in rows), den // g)
    return _matrix(tuple(tuple(row) for row in rows), den)


class Matrix:
    """Immutable dense matrix of Scalars; rows/cols are the dimensions.

    ``data`` holds the entries as Scalars.  The products read the
    cleared integer form instead: integer rows over one common
    denominator, with each row's nonzero (column, numerator) pairs.
    It is cached on first use, and products are born with it.
    """

    __slots__ = ("rows", "cols", "_data", "_ints")

    def __init__(self, data):
        self._data = tuple(tuple(as_scalar(e) for e in row) for row in data)
        self._ints = None
        self.rows = len(self._data)
        self.cols = len(self._data[0]) if self._data else 0
        assert all(len(r) == self.cols for r in self._data), "ragged rows"

    def _int_rows(self):
        """(integer rows, common denominator, sparse rows)."""
        if self._ints is None:
            flat, den = _clear(list(chain.from_iterable(self._data)))
            c = self.cols
            nums = tuple(tuple(flat[i * c:(i + 1) * c]) for i in range(self.rows))
            self._ints = (nums, den, _sparse(nums))
        return self._ints

    @property
    def data(self):
        if self._data is None:
            nums, den, _ = self._ints
            self._data = tuple(tuple(Fraction(a, den) for a in row) for row in nums)
        return self._data

    @staticmethod
    def from_rows(rows):
        return Matrix(rows)

    @staticmethod
    def zero(r, c):
        return Matrix([[ZERO] * c for _ in range(r)])

    @staticmethod
    def diagonal(entries):
        n = len(entries)
        return Matrix(
            [[as_scalar(entries[i]) if i == j else ZERO for j in range(n)] for i in range(n)]
        )

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i):
        return Vector(self.data[i])

    def col(self, j):
        return Vector([self.data[i][j] for i in range(self.rows)])

    def transpose(self):
        return Matrix([[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def trace(self):
        assert self.rows == self.cols
        return sum((self.data[i][i] for i in range(self.rows)), ZERO)

    def __add__(self, other):
        assert self.rows == other.rows and self.cols == other.cols
        return Matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ]
        )

    def __sub__(self, other):
        assert self.rows == other.rows and self.cols == other.cols
        return Matrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ]
        )

    def __neg__(self):
        return Matrix([[-a for a in row] for row in self.data])

    def scale(self, c):
        c = as_scalar(c)
        return Matrix([[c * a for a in row] for row in self.data])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return mat_mul(self, other)
        return NotImplemented

    def __pow__(self, n):
        return mat_pow(self, n)

    def is_zero(self):
        return all(a == 0 for row in self.data for a in row)

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return "Matrix([%s])" % (
            ",\n        ".join(
                "[" + ", ".join(format_scalar(a) for a in row) + "]" for row in self.data
            ),
        )


def identity_matrix(n):
    return Matrix.diagonal([ONE] * n)


def mat_mul(a, b):
    """Matrix product a*b."""
    assert a.cols == b.rows, "shape mismatch: %dx%d * %dx%d" % (a.rows, a.cols, b.rows, b.cols)
    _, d, sa = a._int_rows()
    _, e, sb = b._int_rows()
    out = []
    for row in sa:
        acc = [0] * b.cols
        for k, x in row:
            for j, y in sb[k]:
                acc[j] += x * y
        out.append(acc)
    return _reduced_matrix(out, d * e)


def mat_vec(m, v):
    """m @ v for a column vector v (returns a Vector of length m.rows)."""
    assert m.cols == len(v)
    _, den, sparse = m._int_rows()
    x = v.nums
    return _reduced([sum(a * x[j] for j, a in row) for row in sparse], den * v.den)


def vec_mat(v, m):
    """Row vector times matrix: v @ m."""
    assert len(v) == m.rows
    _, den, sparse = m._int_rows()
    acc = [0] * m.cols
    for x, row in zip(v.nums, sparse):
        if x:
            for j, a in row:
                acc[j] += x * a
    return _reduced(acc, den * v.den)


def mat_pow(m, n):
    """m**n; negative n inverts first (ValueError when singular)."""
    assert m.rows == m.cols
    if n < 0:
        m = inverse(m)
        n = -n
    out = identity_matrix(m.rows)
    base = m
    while n:
        if n & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        n >>= 1
    return out


def _rref(m):
    """Reduced row-echelon form of m.

    Forward pass is Bareiss-style fraction-free elimination (all
    intermediates are integers once rows are cleared), the back pass
    normalises pivots to 1 and clears above them.  Returns (rows,
    pivot_columns).
    """
    # The cleared integer rows: m scaled by one common denominator, which
    # changes neither rank, row space nor kernel.
    rows = [[Fraction(a) for a in row] for row in m._int_rows()[0]]
    nr, nc = m.rows, m.cols
    pivots = []
    prev = ONE
    r = 0
    for c in range(nc):
        p = None
        for i in range(r, nr):
            if rows[i][c] != 0:
                p = i
                break
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nr):
            fi = rows[i][c]
            for j in range(c, nc):
                rows[i][j] = (piv * rows[i][j] - fi * rows[r][j]) / prev
        prev = piv
        pivots.append(c)
        r += 1
        if r == nr:
            break
    for k in reversed(range(len(pivots))):
        c = pivots[k]
        piv = rows[k][c]
        rows[k] = [a / piv for a in rows[k]]
        for i in range(k):
            f = rows[i][c]
            if f != 0:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
    return rows, pivots


def rank(m):
    return len(_rref(m)[1])


def kernel_basis(m):
    """Canonical basis of {v : m @ v = 0}.

    One basis vector per free column of rref(m), with a 1 in its free
    coordinate and 0 in every other free coordinate; stacked as columns
    the result is in reduced column-echelon form, so equal kernels give
    byte-identical bases.  len(result) + rank(m) == m.cols.
    """
    rows, pivots = _rref(m)
    pivot_set = set(pivots)
    basis = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        v = [ZERO] * m.cols
        v[f] = ONE
        for k, c in enumerate(pivots):
            v[c] = -rows[k][f]
        basis.append(Vector(v))
    return basis


def solve(m, b):
    """Canonical solution x of m @ x = b (free coordinates 0), or None.

    Returns None when the system is inconsistent.
    """
    assert m.rows == len(b)
    aug = Matrix([list(row) + [b[i]] for i, row in enumerate(m.data)])
    rows, pivots = _rref(aug)
    if m.cols in pivots:
        return None
    x = [ZERO] * m.cols
    for k, c in enumerate(pivots):
        x[c] = rows[k][m.cols]
    return Vector(x)


def inverse(m):
    """Matrix inverse; ValueError when singular."""
    assert m.rows == m.cols
    n = m.rows
    aug = Matrix([list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(m.data)])
    rows, pivots = _rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix([row[n:] for row in rows[:n]])


def char_poly(m):
    """Characteristic polynomial det(tI - m) by Faddeev-LeVerrier.

    Returns the monic coefficient list in descending degree,
    [1, c_{n-1}, ..., c_0]; everything stays rational (no root finding).

    >>> char_poly(identity_matrix(2)) == [qq(1), qq(-2), qq(1)]
    True
    """
    assert m.rows == m.cols
    n = m.rows
    coeffs = [ONE]
    M = identity_matrix(n)
    for k in range(1, n + 1):
        M = mat_mul(m, M)
        ck = -M.trace() / qq(k)
        coeffs.append(ck)
        if k < n:
            M = M + Matrix.diagonal([ck] * n)
    return coeffs
