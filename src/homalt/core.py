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
"""

import json
import sys
from itertools import chain, product
from math import lcm

from .linalg import (
    Matrix,
    Scalar,
    Vector,
    ZERO,
    clip,
    format_scalar,
    parse_scalar,
    qq,
    quote,
    rank,
    vec_mat,
)
from .record import Record

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
        parts = []
        for name, c in zip(self.algebra.basis_names, self.coords):
            if c == 0:
                continue
            if c == 1:
                parts.append("+ %s" % name)
            elif c == -1:
                parts.append("- %s" % name)
            elif c < 0:
                parts.append("- %s*%s" % (format_scalar(-c), name))
            else:
                parts.append("+ %s*%s" % (format_scalar(c), name))
        if not parts:
            return "0"
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]


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


class CheckReport(Record):
    """Outcome of a law check.

    witness is None exactly when the check passed; otherwise it comes
    from the lexicographically first failing tuple of the law's sweep
    (basis indices or multisets) and lhs/rhs hold the two evaluated
    sides at that witness.
    """

    _fields = ("passed", "law", "witness", "lhs", "rhs", "note")

    def __init__(self, passed: bool, law: str, witness: tuple | None = None,
                 lhs: object = None, rhs: object = None, note: str = ""):
        self.passed = passed
        self.law = law
        self.witness = witness
        self.lhs = lhs
        self.rhs = rhs
        self.note = note

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
    associator is evaluated once, as an integer row (see mul_nums); an
    Element is built only for a witness.
    """
    al, den = A.alpha.nums, A._mu_den

    def prod(i, j):  # e_i * e_j over den, read off the structure constants
        v = A.mu[i][j]
        return [c * (den // v.den) for c in v.nums]

    def assoc(i, j, k):
        return [p - q for p, q in zip(mul_nums(A, prod(i, j), al[k]),
                                      mul_nums(A, al[i], prod(j, k)))]

    for t in product(range(A.dim), repeat=3):
        u = tuple(t[p] for p in perm)
        if t <= u:
            a = assoc(*t)
            b = a if u == t else assoc(*u)
            if any(p + q for p, q in zip(a, b)):
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


def require(A, who, *hypotheses, e=None):
    """Raise HypothesisError unless A meets each hypothesis, in order.

    The hypotheses are "multiplicative", "right-hom-alternative",
    "surjective" (alpha has full rank) and "idempotent" (of the element
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
            r = A.fact("alpha-rank", lambda: rank(A.alpha))
            broken = r < A.dim and "surjective alpha; rank %d < dim %d" % (r, A.dim)
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
# larger dim is refused up front; 64 is three times the largest dim
# measured (20).
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
