"""Known-answer reference for the benchmark's generated algebras.

A small evaluator over ``fractions.Fraction`` that reads the algebra
JSON format (``dim``, ``basis``, ``mu`` entries ``{i, j, k, c}``,
``alpha`` rows) and imports nothing from ``homalt``, so the answers it
gives are independent of the code under test.

Vectors are coordinate lists; ``alpha`` acts on rows from the right, as
in homalt.  The Hom-associator is

    as(x, y, z) = (x*y)*alpha(z) - alpha(x)*(y*z).
"""

from fractions import Fraction


class Algebra:
    """Structure constants and twisting map of one algebra JSON object."""

    def __init__(self, obj):
        self.dim = dim = obj["dim"]
        self.table = [[[] for _ in range(dim)] for _ in range(dim)]
        for ent in obj["mu"]:
            c = Fraction(ent["c"])
            if c:
                self.table[ent["i"]][ent["j"]].append((ent["k"], c))
        self.alpha = [[Fraction(a) for a in row] for row in obj["alpha"]]

    def unit(self, i):
        return [Fraction(int(t == i)) for t in range(self.dim)]

    def mul(self, x, y):
        out = [Fraction(0)] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                for k, c in self.table[i][j]:
                    out[k] += xi * yj * c
        return out

    def apply(self, m, x):
        """Row vector x times the matrix m."""
        out = [Fraction(0)] * self.dim
        for i, xi in enumerate(x):
            if xi:
                for j, a in enumerate(m[i]):
                    if a:
                        out[j] += xi * a
        return out

    def associator(self, x, y, z):
        a = self.alpha
        lhs = self.mul(self.mul(x, y), self.apply(a, z))
        rhs = self.mul(self.apply(a, x), self.mul(y, z))
        return [p - q for p, q in zip(lhs, rhs)]


def _linearized_witness(alg, order, swap):
    e = [alg.unit(i) for i in range(alg.dim)]
    for i, j, k in order:
        a = alg.associator(e[i], e[j], e[k])
        b = alg.associator(*(e[t] for t in swap(i, j, k)))
        if any(p + q for p, q in zip(a, b)):
            return (i, j, k)
    return None


def right_alternative_witness(obj):
    """Lex-first (i, j <= k) with as(ei,ej,ek) + as(ei,ek,ej) != 0, or None."""
    alg = Algebra(obj)
    n = alg.dim
    order = ((i, j, k) for i in range(n) for j in range(n) for k in range(j, n))
    return _linearized_witness(alg, order, lambda i, j, k: (i, k, j))


def left_alternative_witness(obj):
    """Lex-first (i <= j, k) with as(ei,ej,ek) + as(ej,ei,ek) != 0, or None."""
    alg = Algebra(obj)
    n = alg.dim
    order = ((i, j, k) for i in range(n) for j in range(i, n) for k in range(n))
    return _linearized_witness(alg, order, lambda i, j, k: (j, i, k))


def morphism_witness(obj, matrix):
    """Lex-first basis pair (i, j) with m(ei*ej) != m(ei)*m(ej), or None.

    ``matrix`` holds rows of rationals; passing the algebra's own alpha
    asks whether the algebra is multiplicative.
    """
    alg = Algebra(obj)
    m = [[Fraction(a) for a in row] for row in matrix]
    e = [alg.unit(i) for i in range(alg.dim)]
    for i in range(alg.dim):
        for j in range(alg.dim):
            lhs = alg.apply(m, alg.mul(e[i], e[j]))
            rhs = alg.mul(alg.apply(m, e[i]), alg.apply(m, e[j]))
            if lhs != rhs:
                return (i, j)
    return None
