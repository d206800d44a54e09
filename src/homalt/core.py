"""Finite-dimensional Hom-algebras over Q.

A Hom-algebra is a vector space with a bilinear product mu and a linear
self-map alpha.  The product is stored as structure constants
c[i][j][k] (coefficient of basis k in e_i * e_j), alpha as a matrix
acting on coordinate rows from the right.

The Hom-associator is

    as(x, y, z) = (x*y) * alpha(z) - alpha(x) * (y*z)

and the laws checked here are its alternating vanishing conditions:
right Hom-alternative means as(x, y, y) = 0, left Hom-alternative means
as(x, x, y) = 0, Hom-flexible means as(x, y, x) = 0.  All checks run
over the linearized forms on basis tuples, which is equivalent over Q,
and report the lexicographically first failing tuple as a witness.

The theorems checked elsewhere assume hypotheses (multiplicative, right
Hom-alternative, surjective alpha, an idempotent e = e*e = alpha(e)).
Each is decided once per HomAlgebra instance and cached on it, and
``require`` raises HypothesisError naming a broken one and its witness.

The lattice sweep that decides the laws of powers, jordan and symbolic,
polarized_defect_sweep, lives here too, with its price sweep_size and
the cap MAX_SWEEP, beside the integer kernel mul_nums that it runs on.
"""

import json
import sys
from collections import namedtuple
from itertools import chain, combinations_with_replacement, product
from math import comb, isqrt, lcm, prod
from operator import add, itemgetter, sub

from .linalg import (
    Matrix,
    Scalar,
    Vector,
    ZERO,
    clip,
    format_combination,
    format_scalar,
    identity_matrix,
    inverse,
    parse_scalar,
    qq,
    quote,
    rank,
    vec_mat,
)

# The package re-exports these; require, the submodules' precondition
# helper, is imported from here by name.
__all__ = [
    "HypothesisError",
    "HomAlgebra",
    "Element",
    "CheckReport",
    "mul",
    "apply_alpha",
    "hom_associator",
    "commutator",
    "is_multiplicative",
    "is_right_hom_alternative",
    "is_left_hom_alternative",
    "is_hom_flexible",
    "is_idempotent",
    "algebra_to_json",
    "algebra_from_json",
    "save_algebra",
    "load_algebra",
]


class HypothesisError(ValueError):
    """A hypothesis of the theorem being checked fails (``homalt`` exits 3)."""


class HomAlgebra:
    """(A, mu, alpha) with A = Q^dim; never changed once built, so facts
    about it are cached on it (see fact()).  mu[i][j] is e_i * e_j, a
    Vector (kept as given) or a sequence of rationals."""

    def __init__(self, dim, basis_names, mu, alpha):
        if not isinstance(dim, int) or dim < 1:
            raise ValueError("dim must be an integer >= 1, got %r" % (dim,))
        basis_names = tuple(str(n) for n in basis_names)
        if len(basis_names) != dim:
            raise ValueError("need one name per basis vector: %d names for dim %d"
                             % (len(basis_names), dim))
        if len(set(basis_names)) != dim:
            raise ValueError("basis names must be distinct, got %r" % (list(basis_names),))
        if not isinstance(alpha, Matrix):
            raise ValueError("alpha must be a Matrix, got %s" % type(alpha).__name__)
        if (alpha.rows, alpha.cols) != (dim, dim):
            raise ValueError("alpha must be %dx%d, got %dx%d" % (dim, dim, alpha.rows, alpha.cols))
        if len(mu) != dim or any(len(row) != dim or any(len(c) != dim for c in row)
                                 for row in mu):
            raise ValueError("mu must be a %dx%dx%d table of structure constants"
                             % (dim, dim, dim))
        self.dim = dim
        self.basis_names = basis_names
        self.mu = tuple(tuple(c if isinstance(c, Vector) else Vector(c) for c in row)
                        for row in mu)
        self.alpha = alpha
        # The hot loops read mu as a sparse integer tensor over one common
        # denominator: _mu_num[i] holds a pair (j, pairs) for each nonzero
        # e_i * e_j, which is the sum of c * e_k / _mu_den over (k, c) in pairs.
        den = lcm(*(v.den for v in chain.from_iterable(self.mu)))
        self._mu_den = den
        self._mu_num = tuple(
            tuple(
                (j, tuple((k, c * (den // v.den)) for k, c in enumerate(v.nums) if c))
                for j, v in enumerate(row) if any(v.nums)
            )
            for row in self.mu
        )
        self._facts = {}

    def fact(self, key, compute):
        """compute(), decided once for this instance and cached under key
        (two threads asking first may both compute it; the values agree)."""
        if key not in self._facts:
            self._facts[key] = compute()
        return self._facts[key]

    # -- element factories -------------------------------------------------

    def element(self, coords):
        v = coords if isinstance(coords, Vector) else Vector(coords)
        if len(v) != self.dim:
            raise ValueError("an element of a dim-%d algebra needs %d coordinates, got %d"
                             % (self.dim, self.dim, len(v)))
        return Element(self, v)

    def basis_element(self, i):
        return Element(self, Vector.unit(self.dim, i))

    def zero(self):
        return Element(self, Vector.zero(self.dim))

    def basis(self):
        return [self.basis_element(i) for i in range(self.dim)]

    def __repr__(self):
        return "HomAlgebra(dim=%d, basis=%s)" % (self.dim, list(self.basis_names))


class Element:
    """An element of a specific HomAlgebra instance.

    Elements remember which algebra they belong to; combining elements of
    two different instances is an error even if the instances happen to
    have equal structure constants.
    """

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.coords = coords

    def _check_same(self, other):
        if not isinstance(other, Element):
            raise ValueError("expected an Element, got %r" % (other,))
        if other.algebra is not self.algebra:
            raise ValueError("elements belong to different algebras")

    def __add__(self, other):
        self._check_same(other)
        return Element(self.algebra, self.coords + other.coords)

    def __sub__(self, other):
        self._check_same(other)
        return Element(self.algebra, self.coords - other.coords)

    def __neg__(self):
        return Element(self.algebra, -self.coords)

    def scale(self, c):
        return Element(self.algebra, self.coords.scale(c))

    def __rmul__(self, c):
        if isinstance(c, (int, Scalar)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Element):
            return mul(self.algebra, self, other)
        return NotImplemented

    def is_zero(self):
        return self.coords.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and other.algebra is self.algebra
            and other.coords == self.coords
        )

    def __hash__(self):
        return hash((id(self.algebra), self.coords))

    def __repr__(self):
        return format_combination(t for t in zip(self.algebra.basis_names, self.coords) if t[1])


# The integer kernel: for integer rows x, y over dx, dy, x*y is mul_nums(A, x, y) over
# dx * dy * A._mu_den (and alpha(x) is linalg.row_times(x, A.alpha) over dx * A.alpha.den),
# unreduced, so a value's denominator depends only on how it was built.


def mul_nums(A, x, y):
    acc = [0] * A.dim
    for xi, row in zip(x, A._mu_num):
        if xi:
            for j, pairs in row:
                s = xi * y[j]
                if s:
                    for k, c in pairs:
                        acc[k] += s * c
    return acc


def mul(A, x, y):
    """Product x*y in A."""
    if x.algebra is not A or y.algebra is not A:
        raise ValueError("elements belong to different algebras")
    xv, yv = x.coords, y.coords
    return Element(A, Vector.from_ints(mul_nums(A, xv.nums, yv.nums), xv.den * yv.den * A._mu_den))


def apply_alpha(A, x):
    """alpha(x)."""
    if x.algebra is not A:
        raise ValueError("elements belong to different algebras")
    return Element(A, vec_mat(x.coords, A.alpha))


def hom_associator(A, x, y, z):
    """as(x, y, z) = (x*y)*alpha(z) - alpha(x)*(y*z)."""
    return mul(A, mul(A, x, y), apply_alpha(A, z)) - mul(A, apply_alpha(A, x), mul(A, y, z))


def commutator(A, x, y):
    """[x, y] = x*y - y*x."""
    return mul(A, x, y) - mul(A, y, x)


class CheckReport(namedtuple("CheckReport", "passed law witness lhs rhs note",
                             defaults=(None, None, None, ""))):
    """Outcome of a law check; immutable, so a cached report can be shared.

    witness is None exactly when the check passed; otherwise it comes
    from the lexicographically first failing tuple of the law's sweep
    (basis indices or multisets) and lhs/rhs hold the two evaluated
    sides at that witness.  A report equals only a report with the same
    fields (not the plain tuple of them), and is unhashable.
    """

    __slots__ = ()

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def as_dict(self):
        return {
            "passed": self.passed,
            "law": self.law,
            "witness": None if self.witness is None else [repr(w) for w in self.witness],
            "lhs": None if self.lhs is None else repr(self.lhs),
            "rhs": None if self.rhs is None else repr(self.rhs),
            "note": self.note,
        }

    def __bool__(self):
        return self.passed


# -- the lattice sweep -------------------------------------------------------


def _lattice_point(dim, M):
    """x_M, the sum of the basis elements indexed by the multiset M: M's multiplicities."""
    return tuple(map(M.count, range(dim)))


# The largest price of a sweep, or of a powers suite's sweeps together.  A unit
# costs 0.019-0.034 us on a 2-vCPU host (Python 3.11.7): --n 20 on albert5
# (673,485,780) takes 21 s, --n 4 on the sum of eight albert5 copies (dim 40,
# 266,388,480) 9 s and on a dense dim-20 table (1,259,171,760) 24 s.  But the
# Jordan sweep of a dense dim-20 table with large constants costs 0.065 us a
# unit, so an admitted sweep can run for 4-5 minutes.
MAX_SWEEP = 4_000_000_000


def sweep_size(A, *sweeps, work=0):
    """The price of the given sweeps on A together, each named by its tuple of
    degrees: its lattice points, prod C(dim + d - 1, d), times the operations at
    each point, times the steps of one product of dense rows in A.  A point
    costs D^2 operations, for D the sum of the degrees (a powers row n makes
    about n^2 alpha applications), or work when that is more: an identity's point
    (symbolic.identity_sweep_size) and a Jordan one (4 dim + 1 products, 3 alphas)
    make products and alphas that their degrees do not bound.  A product's steps
    are an upper bound: one per coordinate of x and one per nonzero structure
    constant, plus 32 for its fixed cost, fitted to the timings of albert5, its
    sums and dense tables.  ValueError above MAX_SWEEP, before the size is
    formed when one point of the largest degree alone costs more."""
    cost = A.fact("product-cost", lambda: A.dim + 32 + sum(
        len(pairs) for row in A._mu_num for _, pairs in row))
    if cost * max(map(sum, sweeps), default=0) ** 2 > MAX_SWEEP:
        raise ValueError("a sweep of degree above %d on %d basis elements, at %d steps a product, "
                         "costs more than the cap of %d at each point" % (
                             isqrt(MAX_SWEEP // cost), A.dim, cost, MAX_SWEEP))
    size = cost * sum(prod(comb(A.dim + d - 1, d) for d in degrees) * max(sum(degrees) ** 2, work)
                      for degrees in sweeps)
    if size > MAX_SWEEP:
        one = len(sweeps) == 1
        what = ("a sweep of degrees %s (%d operations a point)" % (
            ",".join(map(str, sweeps[0])), max(sum(sweeps[0]) ** 2, work)) if one
                else "the %d sweeps of degrees up to %d" % (len(sweeps), max(map(sum, sweeps))))
        raise ValueError("%s on %d basis elements, at %d steps a product, %s size %d, above the "
                         "cap of %d" % (what, A.dim, cost, "has" if one else "have", size,
                                        MAX_SWEEP))
    return size


def polarized_defect_sweep(A, degrees, defects, law):
    """Exhaustive proof that a multihomogeneous map vanishes.

    degrees is the degree of the map's one variable, or a tuple of the
    degrees of its variable groups.  defects(*xs) gets one lattice point
    x_M per group, as an integer row, and returns the map's defects there
    as [(tag, numerators, denominator)], the same tags in the same order,
    each over the same denominator, at every point.  The groups' basis
    multisets M are swept, the first group outermost, and each point is
    evaluated once.  Returns a CheckReport; a failure witnesses the first
    failing (multiset, tag), tags in defects' order -- (tuple of multisets,
    tag) for a tuple of degrees -- with the defect at x_M, reduced, as lhs.
    Raises ValueError, before any work, when sweep_size refuses the sweep.

    This is the engine behind every exact sweep of powers, jordan and
    symbolic.  A variable of degree d is put at the points

        x_M = sum of e_i over i in M,    M a multiset of d basis indices,

    and over Q a form of degree d on Q^dim vanishes iff it vanishes at these
    C(dim + d - 1, d) points: they are the simplex lattice of the hyperplane
    where the coordinates sum to d, which is unisolvent for polynomials of
    degree <= d (Chung-Yao 1977), so the form vanishes on that hyperplane
    and, being homogeneous, everywhere.  For several groups the points are
    the product of the groups' lattices.  So a pass is a proof, not a
    sample, and a failure is replayed by evaluating the map at x_M with mul
    and alpha alone.  The defects are unreduced integer rows (mul_nums):
    x_M is an integer vector, so each tag's defect lies over one
    denominator, fixed by the expression's shape; the sweep tests the
    numerators and reduces once, at the witness, to the one canonical form
    of that rational value.
    """
    single = isinstance(degrees, int)
    degrees = (degrees,) if single else tuple(degrees)
    sweep_size(A, degrees)
    # The outermost group streams; only the inner groups' points are kept.
    inner = [[(M, _lattice_point(A.dim, M))
              for M in combinations_with_replacement(range(A.dim), d)] for d in degrees[1:]]
    for M in combinations_with_replacement(range(A.dim), degrees[0]):
        x = _lattice_point(A.dim, M)
        for point in product(*inner):
            for tag, nums, den in defects(x, *(y for _, y in point)):
                if any(nums):
                    Ms = M if single else (M, *(N for N, _ in point))
                    return CheckReport(False, law, (Ms, tag),
                                       Element(A, Vector.from_ints(nums, den)), A.zero())
    return CheckReport(True, law)


def morphism_defect(A, beta):
    """((i, j), lhs, rhs) at the lexicographically first basis pair where
    lhs = beta(e_i*e_j) differs from rhs = beta(e_i)*beta(e_j), or None
    when the matrix beta is a weak self-morphism of A's product."""
    images = [A.element(beta.row(i)) for i in range(A.dim)]
    for i, j in product(range(A.dim), repeat=2):
        lhs = A.element(vec_mat(A.mu[i][j], beta))
        rhs = mul(A, images[i], images[j])
        if lhs != rhs:
            return (i, j), lhs, rhs
    return None


def _multiplicative(A):
    bad = morphism_defect(A, A.alpha)
    if bad is None:
        return CheckReport(True, "multiplicative")
    return CheckReport(False, "multiplicative", *bad)


def is_multiplicative(A):
    """alpha(x*y) == alpha(x)*alpha(y), checked on all basis pairs (once per A)."""
    return A.fact("multiplicative", lambda: _multiplicative(A))


def _associator_law(A, law, perm):
    """as(t) + as(t permuted by perm) == 0 on basis triples t.

    Triples run in lexicographic order and skip t when its partner u
    comes first (u < t), since that pair was compared at u.  perm swaps
    two slots, so the pairs {t, u} partition the triples and each basis
    associator is evaluated once, as an integer row of mul_nums products
    (e_i * e_j made on first use); an Element is built only for a witness.
    """
    units, al, den = identity_matrix(A.dim).nums, A.alpha.nums, A._mu_den
    prods, partner = {}, itemgetter(*perm)

    def unit_mul(i, j):  # e_i * e_j over den
        if (i, j) not in prods:
            prods[i, j] = mul_nums(A, units[i], units[j])
        return prods[i, j]

    def assoc(i, j, k):
        return list(map(sub, mul_nums(A, unit_mul(i, j), al[k]),
                        mul_nums(A, al[i], unit_mul(j, k))))

    for t in product(range(A.dim), repeat=3):
        u = partner(t)
        if t <= u:
            a = assoc(*t)
            b = a if u == t else assoc(*u)
            if any(map(add, a, b)):
                d = den * den * A.alpha.den
                return CheckReport(False, law, t, A.element(Vector.from_ints(a, d)),
                                   A.element(Vector.from_ints([-q for q in b], d)))
    return CheckReport(True, law)


def is_right_hom_alternative(A):
    """as(x, y, z) + as(x, z, y) == 0 on basis triples (degree-2 slot
    linearized), once per A."""
    return A.fact("right-hom-alternative",
                  lambda: _associator_law(A, "right-hom-alternative", (0, 2, 1)))


def is_left_hom_alternative(A):
    """as(x, x, y) = 0, linearized to as(x,y,z) + as(y,x,z) == 0 on triples."""
    return _associator_law(A, "left-hom-alternative", (1, 0, 2))


def is_hom_flexible(A):
    """as(x, y, x) = 0, linearized to as(x,y,z) + as(z,y,x) == 0 on triples."""
    return _associator_law(A, "hom-flexible", (2, 1, 0))


def is_idempotent(A, e):
    """e*e == e and alpha(e) == e (the zero element counts)."""
    return mul(A, e, e) == e and apply_alpha(A, e) == e


def alpha_inverse(A):
    """alpha^-1, or None when alpha is singular (the "surjective" hypothesis
    fails); decided once per A."""
    def compute():
        try:
            return inverse(A.alpha)
        except ValueError:  # singular
            return None
    return A.fact("alpha-inverse", compute)


def require(A, who, *hypotheses, e=None):
    """Raise HypothesisError unless A meets each hypothesis, in order.

    The hypotheses are "multiplicative", "right-hom-alternative",
    "surjective" (alpha is invertible) and "idempotent" (of the element
    e); each is decided once per A (and e).  The message is "<who>
    needs ..." and names the first broken hypothesis and its witness.
    """
    for h in hypotheses:
        if h == "multiplicative":
            rep = is_multiplicative(A)
            broken = not rep and ("a multiplicative algebra; alpha fails to be a morphism "
                                  "at basis pair %r" % (rep.witness,))
        elif h == "right-hom-alternative":
            rep = is_right_hom_alternative(A)
            broken = not rep and "a right Hom-alternative algebra; witness %r" % (rep.witness,)
        elif h == "surjective":
            broken = alpha_inverse(A) is None and (
                "surjective alpha; rank %d < dim %d" % (rank(A.alpha), A.dim))
        elif h == "idempotent":
            broken = not A.fact(("idempotent", e), lambda: is_idempotent(A, e)) and (
                "an idempotent: e*e = e = alpha(e), got e = %r with e*e = %r, alpha(e) = %r"
                % (e, mul(A, e, e), apply_alpha(A, e)))
        else:
            raise ValueError("unknown hypothesis %r" % (h,))
        if broken:
            raise HypothesisError("%s needs %s" % (who, broken))


# -- JSON interchange ------------------------------------------------------
#
# {"dim": n,
#  "basis": ["e", ...],
#  "mu": [{"i": 0, "j": 0, "k": 0, "c": "1"}, ...]   # zero entries omitted
#  "alpha": [["1", "0", ...], ...]}                  # dense rows


def algebra_to_json(A):
    entries = []
    for i in range(A.dim):
        for j in range(A.dim):
            v = A.mu[i][j]
            for k, n in enumerate(v.nums):
                if n:
                    entries.append({"i": i, "j": j, "k": k, "c": format_scalar(qq(n, v.den))})
    return {
        "dim": A.dim,
        "basis": list(A.basis_names),
        "mu": entries,
        "alpha": [[format_scalar(a) for a in row] for row in A.alpha.data],
    }


# algebra_from_json allocates the dense dim^3 structure table before it
# reads mu, and every check sweeps dim^3 to dim^5 basis tuples, so a
# larger dim is refused up front; the largest dim timed is 60
# (BENCH_31.json).
MAX_DIM = 64


def _fail(msg):
    raise ValueError("bad algebra JSON: " + msg)


def _is_json_int(x):
    """A JSON integer; JSON's true and false load as bools, which are ints."""
    return isinstance(x, int) and not isinstance(x, bool)


def algebra_from_json(obj):
    if not isinstance(obj, dict):
        _fail("top level must be an object")
    for key in ("dim", "basis", "mu", "alpha"):
        if key not in obj:
            _fail("missing key %r" % key)
    dim = obj["dim"]
    if not _is_json_int(dim) or dim < 1:
        _fail("dim must be a positive integer")
    if dim > MAX_DIM:
        _fail("dim %d is above the cap of %d" % (dim, MAX_DIM))
    basis = obj["basis"]
    if not isinstance(basis, list) or len(basis) != dim or not all(isinstance(b, str) for b in basis):
        _fail("basis must be a list of %d strings" % dim)
    if len(set(basis)) != dim:
        _fail("basis names must be distinct")
    mu = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    if not isinstance(obj["mu"], list):
        _fail("mu must be a list of {i,j,k,c} entries")
    seen = set()
    for ent in obj["mu"]:
        if not isinstance(ent, dict) or set(ent) != {"i", "j", "k", "c"}:
            _fail("mu entries must be objects with keys i, j, k, c (got %s)" % quote(ent))
        i, j, k = ent["i"], ent["j"], ent["k"]
        for idx in (i, j, k):
            if not _is_json_int(idx) or not 0 <= idx < dim:
                _fail("mu index out of range in %s" % quote(ent))
        if (i, j, k) in seen:
            _fail("duplicate mu entry for (%d, %d, %d)" % (i, j, k))
        seen.add((i, j, k))
        try:
            mu[i][j][k] = parse_scalar(ent["c"])
        except ValueError:
            _fail("mu coefficient %s is not a rational literal" % quote(ent["c"]))
    alpha = obj["alpha"]
    if not isinstance(alpha, list) or len(alpha) != dim:
        _fail("alpha must be a list of %d rows" % dim)
    rows = []
    for r, row in enumerate(alpha):
        if not isinstance(row, list) or len(row) != dim:
            _fail("alpha row %d must have %d entries" % (r, dim))
        try:
            rows.append([parse_scalar(a) for a in row])
        except ValueError:
            _fail("alpha row %d contains a non-rational entry" % r)
    return HomAlgebra(dim, basis, mu, Matrix(rows))


# A file that cannot be read or written, or is not JSON, is a ValueError whose
# message names the path once (linalg.clip cuts a long one) and the reason:
# an OSError's own text would repeat the path.


def read_text(path):
    """The text of the file at path."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ValueError("cannot read %s: %s" % (clip(path), reason)) from exc


def read_json(path, what):
    """The JSON value in the file at path; what names the format in messages."""
    text = read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # not JSON, or nested too deep
        raise ValueError("bad %s in %s: %s" % (what, clip(path), exc)) from exc


def write_json(obj, path):
    """obj as indented JSON with sorted keys, and a newline, to the file at
    path, or to stdout when path is None."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError("cannot write %s: %s" % (clip(path), exc.strerror or exc)) from exc


def save_algebra(A, path):
    """Write A in the format above to the file at path, or to stdout when path is None."""
    write_json(algebra_to_json(A), path)


def load_algebra(path):
    return algebra_from_json(read_json(path, "algebra JSON"))
