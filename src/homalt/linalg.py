"""Exact rational scalars, vectors and small dense matrices.

Everything downstream works over Q.  Scalars are fractions.Fraction;
they appear at the boundaries: parsing, construction from user data,
and the values that reports print.

Inside, vectors and matrices have one form: integer numerators over
one common denominator ``den``, kept canonical (den > 0, gcd(den, all
numerators) == 1, so zero has den == 1).  A Vector holds a tuple
``nums``; a Matrix holds a tuple of row tuples ``nums`` and caches each
row's nonzero (column, numerator) pairs.  Equal values have equal
(nums, den), so == and hash compare integers.  Every operation builds
its result in that form -- the products are integer loops that skip
zeros and pay one gcd per result, and row reduction is fraction-free
-- so only the public constructors Vector(entries), Matrix(rows) and
Matrix.diagonal(entries), and the scale factors, go through as_scalar.
entries, data, indexing, iteration, trace and repr hand out Scalars.

Conventions: vectors are coordinate rows, matrices act on the right
(coords of f(x) are x.coords * M_f), and kernel_basis(m) returns the
*column* kernel, i.e. vectors v with m @ v = 0.  Callers that need the
row kernel pass the transpose.
"""

import re
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

__all__ = [
    "Matrix",
    "Scalar",
    "Vector",
    "char_poly",
    "format_scalar",
    "identity_matrix",
    "inverse",
    "kernel_basis",
    "mat_mul",
    "mat_pow",
    "mat_vec",
    "parse_scalar",
    "qq",
    "rank",
    "solve",
    "vec_mat",
]

Scalar = Fraction


def qq(p, q=1):
    """Exact rational p/q."""
    return Fraction(p, q)


ZERO = qq(0)
ONE = qq(1)

_SCALAR_RE = re.compile(r"^[+-]?[0-9]+(?:/[0-9]+)?$")  # ASCII only: \d takes any script's digits


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
    if not isinstance(s, str):
        raise ValueError("bad rational literal %r (expected a string p or p/q)" % (s,))
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


def _length_mismatch(what, v, w):
    return ValueError("cannot %s vectors of lengths %d and %d" % (what, len(v), len(w)))


def _square(m, what):
    if m.rows != m.cols:
        raise ValueError("%s needs a square matrix, got %dx%d" % (what, m.rows, m.cols))


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
        if len(self.nums) != len(other.nums):
            raise _length_mismatch("add", self, other)
        d, e = self.den, other.den
        if d == e:
            return _reduced([a + b for a, b in zip(self.nums, other.nums)], d)
        return _reduced([a * e + b * d for a, b in zip(self.nums, other.nums)], d * e)

    def __sub__(self, other):
        if len(self.nums) != len(other.nums):
            raise _length_mismatch("subtract", self, other)
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
        if len(self.nums) != len(other.nums):
            raise _length_mismatch("take the dot product of", self, other)
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
    """A Matrix from a canonical (tuple of integer row tuples, den) pair, unchecked."""
    m = object.__new__(Matrix)
    m._set(nums, den)
    return m


def _reduced_matrix(rows, den):
    """The canonical Matrix rows/den from lists of ints and den > 0."""
    if den != 1:
        g = gcd(den, *chain.from_iterable(rows))
        if g != 1:
            return _matrix(tuple(tuple(a // g for a in row) for row in rows), den // g)
    return _matrix(tuple(tuple(row) for row in rows), den)


class Matrix:
    """Immutable dense matrix of rationals; rows/cols are the dimensions.

    Integer rows ``nums`` over one ``den``, canonical like a Vector's,
    with each row's nonzero (column, numerator) pairs cached for the
    products.  ``data``, indexing and repr hand out Scalars.
    """

    __slots__ = ("rows", "cols", "nums", "den", "_sparse")

    def __init__(self, data):
        rows = [[as_scalar(e) for e in row] for row in data]
        cols = len(rows[0]) if rows else 0
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows: lengths %s" % sorted({len(r) for r in rows}))
        flat, den = _clear(list(chain.from_iterable(rows)))
        self._set(tuple(tuple(flat[i * cols:(i + 1) * cols]) for i in range(len(rows))), den)

    def _set(self, nums, den):
        self.nums = nums
        self.den = den
        self._sparse = _sparse(nums)
        self.rows = len(nums)
        self.cols = len(nums[0]) if nums else 0

    @property
    def data(self):
        den = self.den
        return tuple(tuple(Fraction(a, den) for a in row) for row in self.nums)

    @staticmethod
    def from_rows(rows):
        return Matrix(rows)

    @staticmethod
    def from_vectors(vectors):
        """The Matrix whose rows are the given Vectors, all of one length."""
        den = lcm(*(v.den for v in vectors))
        return _matrix(tuple(tuple(a * (den // v.den) for a in v.nums) for v in vectors), den)

    @staticmethod
    def zero(r, c):
        return _matrix(((0,) * c,) * r, 1)

    @staticmethod
    def diagonal(entries):
        v = Vector(entries)
        n = len(v)
        return _matrix(tuple(tuple(a * (i == j) for j in range(n)) for i, a in enumerate(v.nums)),
                       v.den)

    def __getitem__(self, ij):
        i, j = ij
        return Fraction(self.nums[i][j], self.den)

    def row(self, i):
        return _reduced(self.nums[i], self.den)

    def col(self, j):
        return _reduced([row[j] for row in self.nums], self.den)

    def transpose(self):
        # the same entries, so the same canonical den
        return _matrix(tuple(zip(*self.nums)), self.den)

    def trace(self):
        _square(self, "trace")
        return Fraction(sum(self.nums[i][i] for i in range(self.rows)), self.den)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("cannot add a %dx%d and a %dx%d matrix"
                             % (self.rows, self.cols, other.rows, other.cols))
        d, e = self.den, other.den
        return _reduced_matrix(
            [[a * e + b * d for a, b in zip(ra, rb)] for ra, rb in zip(self.nums, other.nums)],
            d * e,
        )

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return _matrix(tuple(tuple(-a for a in row) for row in self.nums), self.den)

    def scale(self, c):
        c = as_scalar(c)
        p = c.numerator
        rows = [[p * a for a in row] for row in self.nums]
        return _reduced_matrix(rows, c.denominator * self.den)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return mat_mul(self, other)
        return NotImplemented

    def __pow__(self, n):
        return mat_pow(self, n)

    def is_zero(self):
        return not any(chain.from_iterable(self.nums))

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self):
        return "Matrix([%s])" % (
            ",\n        ".join(
                "[" + ", ".join(format_scalar(a) for a in row) + "]" for row in self.data
            ),
        )


def identity_matrix(n):
    return _matrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1)


def mat_mul(a, b):
    """Matrix product a*b."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch: %dx%d * %dx%d" % (a.rows, a.cols, b.rows, b.cols))
    sb = b._sparse
    out = []
    for row in a._sparse:
        acc = [0] * b.cols
        for k, x in row:
            for j, y in sb[k]:
                acc[j] += x * y
        out.append(acc)
    return _reduced_matrix(out, a.den * b.den)


def mat_vec(m, v):
    """m @ v for a column vector v (returns a Vector of length m.rows)."""
    if m.cols != len(v):
        raise ValueError("shape mismatch: %dx%d matrix @ length-%d vector"
                         % (m.rows, m.cols, len(v)))
    x = v.nums
    return _reduced([sum(a * x[j] for j, a in row) for row in m._sparse], m.den * v.den)


def vec_mat(v, m):
    """Row vector times matrix: v @ m."""
    if len(v.nums) != m.rows:
        raise ValueError("shape mismatch: length-%d vector @ %dx%d matrix"
                         % (len(v), m.rows, m.cols))
    acc = [0] * m.cols
    for x, row in zip(v.nums, m._sparse):
        if x:
            for j, a in row:
                acc[j] += x * a
    return _reduced(acc, m.den * v.den)


def mat_pow(m, n):
    """m**n; negative n inverts first (ValueError when singular)."""
    _square(m, "a matrix power")
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


def _rref(nums, ncols):
    """Reduced row-echelon form of the integer rows nums, fraction-free.

    Bareiss's elimination, run on the rows above each pivot as well as
    below: with the pivot p at (r, c) and the previous pivot q, every
    other row becomes (p * row - row[c] * row_r) // q, an exact
    division.  Each step turns the earlier pivots into p too, so at the
    end the rref is rows / den, with den the last pivot made positive.
    Scaling the input by a constant changes neither rank, row space nor
    kernel.  Returns (rank many rows, den, pivot_columns).
    """
    rows = [list(row) for row in nums]
    nr = len(rows)
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        p = None
        for i in range(r, nr):
            if rows[i][c]:
                p = i
                break
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        top = rows[r]
        piv = top[c]
        for i in range(nr):
            if i != r:
                f = rows[i][c]
                rows[i] = [(piv * a - f * b) // prev for a, b in zip(rows[i], top)]
        prev = piv
        pivots.append(c)
        r += 1
        if r == nr:
            break
    if prev < 0:
        return [[-a for a in row] for row in rows[:r]], -prev, pivots
    return rows[:r], prev, pivots


def rank(m):
    return len(_rref(m.nums, m.cols)[2])


def kernel_basis(m):
    """Canonical basis of {v : m @ v = 0}.

    One basis vector per free column of rref(m), with a 1 in its free
    coordinate and 0 in every other free coordinate; stacked as columns
    the result is in reduced column-echelon form, so equal kernels give
    byte-identical bases.  len(result) + rank(m) == m.cols.
    """
    rows, den, pivots = _rref(m.nums, m.cols)
    pivot_set = set(pivots)
    basis = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        v = [0] * m.cols
        v[f] = den
        for k, c in enumerate(pivots):
            v[c] = -rows[k][f]
        basis.append(_reduced(v, den))
    return basis


def solve(m, b):
    """Canonical solution x of m @ x = b (free coordinates 0), or None.

    b is a Vector; returns None when the system is inconsistent.
    """
    if m.rows != len(b):
        raise ValueError("shape mismatch: %dx%d system with a length-%d right-hand side"
                         % (m.rows, m.cols, len(b)))
    d, e = m.den, b.den
    aug = [[a * e for a in row] + [x * d] for row, x in zip(m.nums, b.nums)]
    rows, den, pivots = _rref(aug, m.cols + 1)
    if m.cols in pivots:
        return None
    x = [0] * m.cols
    for k, c in enumerate(pivots):
        x[c] = rows[k][m.cols]
    return _reduced(x, den)


def inverse(m):
    """Matrix inverse; ValueError when singular."""
    _square(m, "an inverse")
    n = m.rows
    # rref [N | I] = [I | N^-1] for m = N / den, and m^-1 = den * N^-1
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m.nums)]
    rows, den, pivots = _rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return _reduced_matrix([[a * m.den for a in row[n:]] for row in rows], den)


def char_poly(m):
    """Characteristic polynomial det(tI - m) by Faddeev-LeVerrier.

    Returns the monic coefficient list in descending degree,
    [1, c_{n-1}, ..., c_0]; everything stays rational (no root finding).
    With M = N / den after k steps, c = -tr(N) / (k den) and the next
    M is (k N - tr(N) I) / (k den), so the loop runs on integers.

    >>> char_poly(identity_matrix(2)) == [qq(1), qq(-2), qq(1)]
    True
    """
    _square(m, "a characteristic polynomial")
    n = m.rows
    coeffs = [ONE]
    M = identity_matrix(n)
    for k in range(1, n + 1):
        M = mat_mul(m, M)
        t = sum(M.nums[i][i] for i in range(n))
        coeffs.append(Fraction(-t, k * M.den))
        if k < n:
            M = _reduced_matrix(
                [[k * a - t * (i == j) for j, a in enumerate(row)] for i, row in enumerate(M.nums)],
                k * M.den,
            )
    return coeffs
