"""The free multiplicative Hom-algebra and proof certificates.

Monomials are binary product trees whose leaves are pairs (variable,
alpha-exponent); multiplicativity alpha(m*n) = alpha(m)*alpha(n) is
built into the normal form, which pushes every alpha down to the
leaves.  A polynomial is a finite Scalar combination of normalized
monomials.  Equality of normal forms therefore decides equality of
expressions in every multiplicative Hom-algebra -- that is the
soundness bridge the certificate layer stands on.

A certificate for an identity lhs = rhs is a list of instances

    coeff * wrap( axiom[ substitution ] )

where the axiom is the linearized right-alternative defect

    RA(x, y, z) = as(x, y, z) + as(x, z, y)

or the defect lhs - rhs of an identity certified earlier, the
substitution plugs monomials into the axiom's formal variables, and wrap
is a chain of left/right multiplications by monomials and alpha shifts.
The certificate verifies when the identity's defect minus the sum of
instances normalizes to zero; since each instance vanishes in every
multiplicative right Hom-alternative algebra, the identity then holds
in all of them.  A certificate may use the defect of an identity only
when that identity comes earlier in identity_registry(), so no chain of
certificates assumes what it proves.  The shipped certificates live in
data/certificates.json and use only instances that are individually
nonzero, so corrupting any single coefficient breaks verification.

That is certificate transfer: certified_identities() names the registry
identities whose certificate verifies and leans only on certified ones
(each shipped certificate is verified at most once per process), and on
an algebra where both axioms hold, identity_checks (the identities
suite's rows) reports those as proved without evaluating them.  Where an
axiom fails, the concrete check below still decides, and finds the
witness.  certificate_checks builds the symbolic suite's rows.

Identities are also checkable concretely: check_identity_on_algebra
evaluates a nonzero defect lhs - rhs once at each lattice point of
core.polarized_defect_sweep (whose docstring gives the method), with one
group of points for each variable: an exact proof that makes one
evaluation per point, not the d! terms of multilinearize's symbolic form.
"""

import functools
import json
from collections import Counter, namedtuple
from itertools import permutations
from math import lcm
from operator import itemgetter

from .linalg import ONE, ZERO, as_scalar, format_combination, parse_scalar, quote, row_times
from .core import CheckReport, is_multiplicative, is_right_hom_alternative, mul_nums
from .core import polarized_defect_sweep, require, sweep_size
# mul is unused here, but perfbench/traced.py wraps it in every module that holds it.
from .core import mul  # noqa: F401

__all__ = [
    "HomMonomial",
    "HomPolynomial",
    "var",
    "expand_associator",
    "ra_polynomial",
    "specialize_classical",
    "IdentityDef",
    "identity_registry",
    "check_identity_on_algebra",
    "hom_teichmuller_terms",
    "verify_hom_teichmuller",
    "load_certificates",
    "verify_certificate",
    "certified_identities",
]


# -- monomials ---------------------------------------------------------------
#
# normalized trees:  ("v", name, k)  |  ("m", left, right)


def _shift_tree(tree, k):
    if tree[0] == "v":
        return ("v", tree[1], tree[2] + k)
    return ("m", _shift_tree(tree[1], k), _shift_tree(tree[2], k))


def _tree_leaves(tree, out):
    if tree[0] == "v":
        out.append((tree[1], tree[2]))
    else:
        _tree_leaves(tree[1], out)
        _tree_leaves(tree[2], out)


def _tree_shape(tree):
    return "." if tree[0] == "v" else "(%s%s)" % (_tree_shape(tree[1]), _tree_shape(tree[2]))


def _tree_repr(tree):
    if tree[0] == "v":
        return tree[1] if tree[2] == 0 else "a%d(%s)" % (tree[2], tree[1])
    return "(%s*%s)" % (_tree_repr(tree[1]), _tree_repr(tree[2]))


class HomMonomial:
    """A normalized monomial: product tree with alpha pushed to leaves.

    Ordered by (leaf count, tree shape, leaf names, leaf exponents),
    which makes polynomial term order -- and hence serialized output --
    canonical.
    """

    __slots__ = ("tree", "_sort_key", "_hash")

    def __init__(self, tree):
        if tree[0] not in ("v", "m"):
            raise ValueError("a monomial tree is a ('v', name, k) leaf or an ('m', left, right) "
                             "product, got tag %r" % (tree[0],))
        self.tree = tree
        self._sort_key, self._hash = None, hash(tree)  # the key is made on first use

    @property
    def _key(self):
        if self._sort_key is None:
            leaves = self.leaves()
            self._sort_key = (len(leaves), _tree_shape(self.tree),
                              tuple(n for n, _ in leaves), tuple(k for _, k in leaves))
        return self._sort_key

    @staticmethod
    def variable(name, k=0):
        if not isinstance(k, int) or k < 0:
            raise ValueError("alpha exponents need an integer k >= 0, got %r" % (k,))
        return HomMonomial(("v", str(name), k))

    def mul(self, other):
        return HomMonomial(("m", self.tree, other.tree))

    def alpha(self, k=1):
        if k < 0:
            raise ValueError("alpha shifts must be non-negative, got %d" % k)
        return self if k == 0 else HomMonomial(_shift_tree(self.tree, k))

    def leaves(self):
        out = []
        _tree_leaves(self.tree, out)
        return out

    def __eq__(self, other):
        return isinstance(other, HomMonomial) and other.tree == self.tree

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self._key < other._key

    def __repr__(self):
        return _tree_repr(self.tree)


def mono(name, k=0):
    return HomMonomial.variable(name, k)


def _accumulate(out, terms):
    """Add the (monomial, Scalar) terms into the dict out, dropping the
    monomials whose coefficient becomes zero; returns out."""
    get = out.get
    for m, c in terms:
        old = get(m)
        acc = c if old is None else old + c
        if acc:
            out[m] = acc
        elif old is not None:
            del out[m]
    return out


class HomPolynomial:
    """Scalar combination of HomMonomials; zero coefficients are dropped."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            _accumulate(self._terms, ((m, as_scalar(c)) for m, c in items))

    @staticmethod
    def zero():
        return HomPolynomial()

    def terms(self):
        """Sorted list of (monomial, coefficient)."""
        return sorted(self._terms.items(), key=lambda mc: mc[0]._key)

    def num_terms(self):
        return len(self._terms)

    def coefficient(self, m):
        return self._terms.get(m, ZERO)

    def is_zero(self):
        return not self._terms

    def __add__(self, other):
        p = HomPolynomial()
        p._terms = _accumulate(dict(self._terms), other._terms.items())
        return p

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        p = HomPolynomial()
        p._terms = {m: -c for m, c in self._terms.items()}
        return p

    def scale(self, c):
        c = as_scalar(c)
        p = HomPolynomial()
        if c != 0:
            p._terms = {m: c * x for m, x in self._terms.items()}
        return p

    def __mul__(self, other):
        if isinstance(other, HomPolynomial):
            return poly_mul(self, other)
        return NotImplemented

    def alpha(self, k=1):
        p = HomPolynomial()
        p._terms = {m.alpha(k): c for m, c in self._terms.items()}
        return p

    def variables(self):
        vs = set()
        for m in self._terms:
            vs.update(n for n, _ in m.leaves())
        return vs

    def __eq__(self, other):
        return isinstance(other, HomPolynomial) and other._terms == self._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        return format_combination((repr(m), c) for m, c in self.terms())


def var(name, k=0):
    return HomPolynomial({mono(name, k): ONE})


def poly_mul(p, q):
    r = HomPolynomial()
    r._terms = _accumulate({}, ((m1.mul(m2), c1 * c2) for m1, c1 in p._terms.items()
                                for m2, c2 in q._terms.items()))
    return r


def expand_associator(p, q, r):
    """as(p, q, r) = (p*q)*alpha(r) - alpha(p)*(q*r)."""
    return poly_mul(poly_mul(p, q), r.alpha(1)) - poly_mul(p.alpha(1), poly_mul(q, r))


def poly_commutator(p, q):
    return poly_mul(p, q) - poly_mul(q, p)


def ra_polynomial():
    """RA(x,y,z) = as(x,y,z) + as(x,z,y), the linearized right-alternative law."""
    x, y, z = var("x"), var("y"), var("z")
    return expand_associator(x, y, z) + expand_associator(x, z, y)


def specialize_classical(p):
    """Set every alpha-exponent to zero (the alpha = Id specialization)."""
    def strip(tree):
        if tree[0] == "v":
            return ("v", tree[1], 0)
        return ("m", strip(tree[1]), strip(tree[2]))

    return HomPolynomial((HomMonomial(strip(m.tree)), c) for m, c in p._terms.items())


# -- evaluation of normalized polynomials ------------------------------------


def _compile_tree(tree, slot_of, nodes):
    """(k, shift): tree is alpha^shift of node k.  nodes maps each node
    (op, a, b) to its index, new ones added after their operands: the row
    of variable a ("v"), alpha^b of node a ("a") or node a times node b ("m").

    The alpha rule: a tree whose leaves all have alpha-exponent >= 1 is
    alpha applied to the tree shifted down once, in a multiplicative
    algebra, which every caller requires.  So alpha^k(x^i) is alpha
    applied to the row of x^i, not new products of shifted leaves."""
    if tree[0] == "v":
        if tree[1] not in slot_of:
            raise ValueError("unassigned variable %r" % tree[1])
        return nodes.setdefault(("v", slot_of[tree[1]], 0), len(nodes)), tree[2]
    left, ls = _compile_tree(tree[1], slot_of, nodes)
    right, rs = _compile_tree(tree[2], slot_of, nodes)
    shift = min(ls, rs)
    left, right = _alpha_node(left, ls - shift, nodes), _alpha_node(right, rs - shift, nodes)
    return nodes.setdefault(("m", left, right), len(nodes)), shift


def _alpha_node(k, shift, nodes):
    """The index in nodes of alpha^shift of node k (_compile_tree)."""
    return nodes.setdefault(("a", k, shift), len(nodes)) if shift else k


def _polynomial_evaluator(A, polys, names, dens):
    """xs -> [(tag, numerators, denominator)], one per (tag, polynomial) in
    polys: the polynomial at one integer row per variable in names, xs[t]
    over dens[t]; each denominator is the same at every xs.

    The polynomials share one table of subtrees (_compile_tree), each
    evaluated once per call: anew when it reads every variable, else
    memoised on the numbers of the rows it reads.  The first variable is
    a sweep's outermost, whose rows do not recur, so its row is numbered
    only while it is current: when it changes, every subtree that reads it
    forgets its values.  The other rows are numbered for good, since an
    inner group's points recur at each outer one."""
    slot_of, nodes = {v: t for t, v in enumerate(names)}, {}
    monomials = dict.fromkeys(m for _, p in polys for m in p._terms)  # each compiled once
    index = {m: _alpha_node(*_compile_tree(m.tree, slot_of, nodes), nodes) for m in monomials}
    slots, den, steps, outer_memos = [], [], [], []
    for k, (op, a, b) in enumerate(nodes):
        slots.append((a,) if op == "v" else slots[a] if op == "a" else
                     tuple(sorted(set(slots[a] + slots[b]))))
        den.append(dens[a] if op == "v" else den[a] * A.alpha.den ** b if op == "a" else
                   den[a] * den[b] * A._mu_den)
        if op == "a" and nodes.get(("a", a, b - 1), k) < k:  # alpha of alpha^(b-1)(a)
            a, b = nodes["a", a, b - 1], 1
        memo = {} if len(slots[k]) < len(dens) else None
        if memo is not None and slots[k][0] == 0:
            outer_memos.append(memo)
        steps.append((k, op, a, b, itemgetter(*slots[k]), memo))
    compiled = []
    for tag, p in polys:
        terms = [(index[m], c, c.denominator * den[index[m]]) for m, c in p._terms.items()]
        d = lcm(*(cden for _, _, cden in terms))
        compiled.append((tag, d, [(k, c.numerator * (d // cden)) for k, c, cden in terms]))
    values, zero = [None] * len(nodes), [0] * A.dim
    seen = {}  # inner row -> its number
    current = [()]  # the outermost row, as xs[:1]

    def evaluate(xs):
        if xs[:1] != current[0]:
            current[0] = xs[:1]
            for memo in outer_memos:
                memo.clear()
        ids = (0, *[seen.setdefault(x, len(seen)) for x in xs[1:]])
        for k, op, a, b, key, memo in steps:
            e = None if memo is None else memo.get(key(ids))
            if e is None:
                if op == "m":
                    e = mul_nums(A, values[a], values[b])
                elif op == "a":
                    e = values[a]
                    for _ in range(b):
                        e = row_times(e, A.alpha)
                else:
                    e = xs[a]
                if memo is not None:
                    memo[key(ids)] = e
            values[k] = e
        out = []
        for tag, den, terms in compiled:
            acc = zero
            for k, c in terms:
                acc = values[k] if acc is zero and c == 1 else [
                    s + c * a for s, a in zip(acc, values[k])]
            out.append((tag, acc, den))
        return out

    return evaluate


# -- the identity registry ---------------------------------------------------


def _multidegree(lhs, rhs):
    """The multidegree {variable: degree}, variables sorted, that every
    monomial of lhs and of rhs has ({} when both are zero).  ValueError,
    naming the first monomial in term order, lhs first, whose multidegree
    differs from the first monomial's."""
    degrees = None
    for side, p in (("lhs", lhs), ("rhs", rhs)):
        for m, _ in p.terms():
            got = dict(sorted(Counter(n for n, _k in m.leaves()).items()))
            if degrees is None:
                degrees = got
            elif got != degrees:
                raise ValueError(
                    "%s is not homogeneous of multidegree %s: monomial %s has %s"
                    % (side, quote(degrees), quote(m), quote(got))
                )
    return degrees or {}


class IdentityDef(namedtuple("IdentityDef", "name lhs rhs")):
    """A named identity lhs = rhs; its multidegree is read from its monomials."""

    __slots__ = ()

    @property
    def degrees(self):
        """{variable: degree}, variables sorted, that every monomial of both
        sides has; ValueError when the sides are not homogeneous of one."""
        return _multidegree(self.lhs, self.rhs)

    @property
    def variables(self):
        return tuple(self.degrees)

    def defect(self):
        return self.lhs - self.rhs


@functools.cache
def identity_registry():
    """The six associator identities of multiplicative right Hom-alternative
    algebras, in certificate dependency order, built once per process."""
    w, x, y, z = var("w"), var("x"), var("y"), var("z")
    A, a = expand_associator, HomPolynomial.alpha
    return {name: IdentityDef(name, lhs, rhs) for name, lhs, rhs in (
        ("assoc-shift", A(a(x), a(y), poly_mul(y, z)), poly_mul(A(x, y, z), a(y, 2))),
        ("assoc-shift-linear",
         A(a(x), a(w), poly_mul(y, z)) + A(a(x), a(y), poly_mul(w, z)),
         poly_mul(A(x, w, z), a(y, 2)) + poly_mul(A(x, y, z), a(w, 2))),
        ("commutator-exchange",
         A(poly_mul(w, x), a(y), a(z)) + A(a(w), a(x), poly_commutator(y, z)),
         poly_mul(a(w, 2), A(x, y, z)) + poly_mul(A(w, y, z), a(x, 2))),
        ("middle-square",
         A(a(x), poly_mul(y, y), a(z)), A(a(x), a(y), poly_mul(y, z) + poly_mul(z, y))),
        ("right-moufang",
         poly_mul(poly_mul(poly_mul(x, y), a(z)), a(y, 2)),
         poly_mul(a(x, 2), poly_mul(poly_mul(y, z), a(y)))),
        ("associator-tail",
         poly_mul(poly_mul(A(x, y, z), a(y, 2)), a(z, 3)),
         a(poly_mul(A(x, y, z), a(poly_mul(z, y))))),
    )}


# -- Hom-Teichmuller ----------------------------------------------------------


def hom_teichmuller_terms(w, x, y, z):
    """The five signed associator terms of f(w, x, y, z)."""
    A = expand_associator
    return [
        A(poly_mul(w, x), y.alpha(1), z.alpha(1)),
        -A(w.alpha(1), poly_mul(x, y), z.alpha(1)),
        A(w.alpha(1), x.alpha(1), poly_mul(y, z)),
        -poly_mul(w.alpha(2), A(x, y, z)),
        -poly_mul(A(w, x, y), z.alpha(2)),
    ]


def verify_hom_teichmuller():
    """True iff f expands to exactly 10 product terms that sum to zero."""
    terms = hom_teichmuller_terms(var("w"), var("x"), var("y"), var("z"))
    return sum(t.num_terms() for t in terms) == 10 and sum(terms, HomPolynomial()).is_zero()


# -- multilinearization and concrete identity checking ------------------------


def _replace_leaves_in_order(tree, names):
    """Rebuild tree with the i-th matching leaf renamed to names[i]."""
    it = iter(names)

    def go(t):
        if t[0] == "v":
            nxt = next(it)
            return ("v", nxt, t[2]) if nxt is not None else t
        return ("m", go(t[1]), go(t[2]))

    return go(tree)


def _polarize_variable(p, v, slots):
    d = len(slots)
    terms = []
    for m, c in p._terms.items():
        leaves = m.leaves()
        hit = [i for i, (n, _) in enumerate(leaves) if n == v]
        if len(hit) != d:
            raise ValueError(
                "cannot polarize %r into %d slots: monomial %r has degree %d in it"
                % (v, d, m, len(hit))
            )
        for perm in permutations(slots):
            names = [None] * len(leaves)
            for t, i in enumerate(hit):
                names[i] = perm[t]
            terms.append((HomMonomial(_replace_leaves_in_order(m.tree, names)), c))
    return HomPolynomial(terms)


def multilinearize(p, degrees):
    """Replace each degree-d variable by d slot variables v#0..v#d-1.

    Returns (multilinear polynomial, {variable: [slot names]}).  Over Q
    the result vanishes identically iff p does on all substitutions.
    Not public: the tests check the lattice sweep against it, and
    perfbench/traced.py wraps it.
    """
    groups = {}
    q = p
    for v in sorted(degrees):
        d = degrees[v]
        if d == 1:
            groups[v] = [v]
            continue
        slots = ["%s#%d" % (v, t) for t in range(d)]
        groups[v] = slots
        q = _polarize_variable(q, v, slots)
    return q, groups


def identity_sweep_size(A, defect, degrees):
    """core.sweep_size of the lattice sweep of defect, of multidegree
    degrees, on A: a point costs the most of D^2, D the total degree, and
    bounds on the products and the alpha applications that one evaluation
    makes -- one product per distinct product node of defect, and k alpha
    applications per distinct leaf alpha^k(v) -- counted in one walk of
    its distinct subtrees: upper bounds, as the evaluator pulls alpha out of
    products (_compile_tree).  ValueError above core.MAX_SWEEP."""
    seen, products, alphas = set(), 0, 0
    stack = [m.tree for m in defect._terms]
    while stack:
        tree = stack.pop()
        if tree not in seen:
            seen.add(tree)
            if tree[0] == "v":
                alphas += tree[2]
            else:
                products += 1
                stack += tree[1:]
    return sweep_size(A, tuple(degrees.values()), work=max(products, alphas))


def check_identity_on_algebra(A, lhs, rhs, name="identity"):
    """Exact proof that lhs = rhs holds throughout A.

    A must be multiplicative: lhs and rhs are normal forms in the free
    multiplicative Hom-algebra.  When lhs - rhs normalizes to zero there,
    the identity holds without a sweep.  Otherwise both sides must share
    one multidegree (ValueError otherwise), the sweep must fit the cap of
    identity_sweep_size (ValueError otherwise), and the defect is evaluated
    by core.polarized_defect_sweep at each lattice point: each variable
    v of degree d is x_M, the sum of the basis elements of a multiset M
    of d indices, variables in sorted order.  A failure witnesses
    ((variable, multiset), ...), with the defect there as lhs.
    """
    require(A, "the identity sweep", "multiplicative")
    defect = lhs - rhs
    if defect.is_zero():
        return CheckReport(True, name,
                           note="normalizes to zero in the free multiplicative Hom-algebra")
    degrees = _multidegree(lhs, rhs)
    identity_sweep_size(A, defect, degrees)
    names = list(degrees)
    evaluate = _polynomial_evaluator(A, [(None, defect)], names, [1] * len(names))
    rep = polarized_defect_sweep(A, tuple(degrees.values()), lambda *xs: evaluate(xs), name)
    if not rep.passed:
        return CheckReport(False, name, tuple(zip(names, rep.witness[0])), rep.lhs, rep.rhs)
    return CheckReport(True, name, note="lattice sweep over all basis multisets")


# -- certificates --------------------------------------------------------------


def subst_monomial(m, sub):
    """Plug monomials into a monomial's variables (alpha shifts distribute)."""

    def go(tree):
        if tree[0] == "v":
            name, k = tree[1], tree[2]
            if name not in sub:
                raise ValueError("substitution missing variable %r" % name)
            return sub[name].alpha(k).tree
        return ("m", go(tree[1]), go(tree[2]))

    return HomMonomial(go(m.tree))


@functools.cache
def _axiom_polynomial(axiom):
    """(defining polynomial, sorted formal variables) of a certificate axiom; shared."""
    if axiom == "right-alternative":
        p = ra_polynomial()
    elif axiom.startswith("defect:"):
        name = axiom[len("defect:"):]
        reg = identity_registry()
        if name not in reg:
            raise ValueError("certificate references unknown identity %r" % name)
        p = reg[name].defect()
    else:
        raise ValueError("unknown certificate axiom %r" % axiom)
    return p, sorted(p.variables())


@functools.cache
def _monomial(text):
    """The monomial that text parses to, parsed once per process: the
    certificates repeat a few dozen texts over their instances."""
    from .dsl import parse_monomial

    return parse_monomial(text)


def build_instance(entry):
    """One certificate instance -> (coefficient, polynomial)."""
    if not isinstance(entry, dict) or "coeff" not in entry or "axiom" not in entry:
        raise ValueError("certificate instance needs coeff and axiom: %r" % (entry,))
    coeff = parse_scalar(entry["coeff"])
    base, formal = _axiom_polynomial(entry["axiom"])
    raw_sub = entry.get("substitution", {})
    if set(raw_sub) != set(formal):
        raise ValueError(
            "substitution for %s must cover exactly %r, got %r"
            % (entry["axiom"], formal, sorted(raw_sub))
        )
    sub = {v: _monomial(t) for v, t in raw_sub.items()}
    wraps = []  # tree -> tree, in order; each is one-to-one on monomials
    for op in entry.get("wrap", []):
        if not isinstance(op, (list, tuple)) or len(op) != 2:
            raise ValueError("bad wrap entry %r" % (op,))
        tag, arg = op
        if tag == "alpha":
            if not isinstance(arg, int) or arg < 1:
                raise ValueError("alpha wrap needs a positive shift, got %r" % (arg,))
            wraps.append(lambda t, k=arg: _shift_tree(t, k))
        elif tag == "premul":
            wraps.append(lambda t, w=_monomial(arg).tree: ("m", w, t))
        elif tag == "postmul":
            wraps.append(lambda t, w=_monomial(arg).tree: ("m", t, w))
        else:
            raise ValueError("unknown wrap op %r" % (tag,))

    def wrapped(m):
        tree = subst_monomial(m, sub).tree
        for wrap in wraps:
            tree = wrap(tree)
        return HomMonomial(tree)

    inst = HomPolynomial()
    _accumulate(inst._terms, ((wrapped(m), c) for m, c in base._terms.items()))
    return coeff, inst


@functools.cache
def load_certificates():
    """The shipped certificate data, keyed by identity name, read once per
    process (cache_clear() forgets it): callers must not change it."""
    # Imported on first use: it costs every process start-up time, and
    # nothing else needs it.
    from importlib import resources

    text = resources.files("homalt").joinpath("data/certificates.json").read_text()
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("certificate file must map identity names to instance lists")
    reg = identity_registry()
    for name, entry in data.items():
        if name not in reg:
            raise ValueError("certificate for unknown identity %r" % name)
        if not isinstance(entry, dict) or not isinstance(entry.get("instances"), list):
            raise ValueError("certificate %r needs an 'instances' list" % name)
        _check_references(name, entry["instances"])
    return data


def _check_references(name, instances):
    """ValueError unless each defect: axiom in instances names an identity
    that comes before name in identity_registry() order, so no chain of
    certificates leans on the identity it proves."""
    order = list(identity_registry())
    for entry in instances:
        axiom = entry.get("axiom") if isinstance(entry, dict) else None
        if isinstance(axiom, str) and axiom.startswith("defect:"):
            used = axiom[len("defect:"):]
            if used in order and order.index(used) >= order.index(name):
                raise ValueError(
                    "certificate for %r may use only identities certified before it, not %r"
                    % (name, used)
                )


def verify_certificate(name, instances):
    """(ok, residue): does the instance sum normalize to the defect?

    A name outside identity_registry() is a ValueError, and so is a
    defect: axiom naming name itself or a later identity: the
    certificate would assume what it proves.
    """
    reg = identity_registry()
    if name not in reg:
        raise ValueError("unknown identity %r (have: %s)" % (name, ", ".join(reg)))
    target = reg[name].defect()
    _check_references(name, instances)
    total = HomPolynomial()
    for coeff, inst in map(build_instance, instances):
        _accumulate(total._terms, ((m, coeff * c) for m, c in inst._terms.items()))
    residue = target - total
    return residue.is_zero(), residue


@functools.cache
def shipped_certificate_report(name):
    """The ``certificate:<name>`` CheckReport of the shipped certificate of
    name, verified at most once per process (cache_clear() forgets it)."""
    instances = load_certificates()[name]["instances"]
    ok, residue = verify_certificate(name, instances)
    return CheckReport(
        ok,
        "certificate:%s" % name,
        witness=None if ok else (repr(residue),),
        note="%d instances" % len(instances),
    )


def certified_identities():
    """The registry identities that certificate transfer decides, as a frozenset.

    A shipped certificate proves its identity in every multiplicative
    right Hom-alternative algebra when it verifies and every defect:
    identity it uses is itself certified (load_certificates admits only
    earlier ones).  Each certificate is verified through
    shipped_certificate_report, so at most once per process.
    """
    data = load_certificates()
    certified = set()
    for name in identity_registry():
        if name not in data or not shipped_certificate_report(name).passed:
            continue
        axioms = {entry["axiom"] for entry in data[name]["instances"]}
        used = {a[len("defect:"):] for a in axioms if a.startswith("defect:")}
        if used <= certified:
            certified.add(name)
    return frozenset(certified)


# -- the identities and symbolic suites' rows ---------------------------------


def _transferred(name):
    note = "certificate (%s) transfers: multiplicative and right Hom-alternative hold"
    return CheckReport(True, name, note=note % shipped_certificate_report(name).note)


def identity_checks(A):
    """The identities suite's checks, in registry order: zero-argument
    callables that each return one CheckReport.  An identity transfers when
    A is multiplicative and right Hom-alternative and the identity is in
    certified_identities(); every other one is priced by
    identity_sweep_size before this returns, and its check sweeps."""
    axioms = is_multiplicative(A) and is_right_hom_alternative(A)
    transfer = certified_identities() if axioms else ()
    checks = []
    for ident in identity_registry().values():
        if ident.name in transfer:
            checks.append(functools.partial(_transferred, ident.name))
        else:
            identity_sweep_size(A, ident.defect(), ident.degrees)
            checks.append(functools.partial(check_identity_on_algebra, A, ident.lhs, ident.rhs,
                                            name=ident.name))
    return checks


def _teichmuller():
    ok = verify_hom_teichmuller()
    return CheckReport(ok, "hom-teichmuller", None if ok else ("expansion did not vanish",),
                       note="10 terms → 0" if ok else "")


def certificate_checks():
    """The symbolic suite's checks: the hom-teichmuller row, then each
    shipped certificate's row (shipped_certificate_report) in name order."""
    return [_teichmuller] + [functools.partial(shipped_certificate_report, name)
                             for name in sorted(load_certificates())]
