"""S-expression syntax for Hom-algebra terms and identities.

    term     := VAR
              | (mul term term)          product
              | (a K term)               alpha applied K times, K >= 0
              | (as term term term)      Hom-associator
              | (com term term)          commutator
              | (add term term ...)      sum
              | (sub term term)          difference
              | (neg term)               negation
              | (scale P/Q term)         scalar multiple
    identity := (= term term)

Variables are identifiers ([A-Za-z_][A-Za-z0-9_]*).  parse_term returns
a HomPolynomial (terms normalize on construction); parse_identity
returns the (lhs, rhs) pair; parse_monomial additionally insists the
term is a single monomial with coefficient 1, which is what certificate
substitutions and wraps require.  Malformed input, including terms
nested more than MAX_DEPTH levels deep, alpha powers that add up to
more than MAX_ALPHA_POWER on one leaf and products whose operands' term
counts multiply past MAX_TERMS, raises ValueError with the offending
position.  A message quotes at most QUOTE_CHARS characters of an
offending token, and gives the length of a longer one.
"""

import operator
import re
from math import prod

from .linalg import parse_scalar
from .symbolic import (
    HomMonomial,
    expand_associator,
    poly_commutator,
    poly_mul,
    var,
)

__all__ = ["parse_term", "parse_identity", "parse_monomial", "term_to_dsl"]

# Deeper terms would exhaust Python's recursion limit in the parser or in
# the recursive tree walks of homalt.symbolic.
MAX_DEPTH = 200
# A sweep applies alpha to a leaf once per unit of its exponent on every
# evaluation, so its time grows linearly in the exponent; nested
# (a K ...) forms add up on the leaf.
MAX_ALPHA_POWER = 1000
# mul, as and com expand into every product of one term from each
# operand, so nesting multiplies term counts: (mul (add x y) ...) nested
# 16 deep is 257 characters, has 65536 terms and took seconds to parse.
# A product of 4096 terms expands in about 0.1 s (Python 3.11, 2 vCPU).
MAX_TERMS = 4096
# Error messages quote at most this many characters of the input, so a
# huge token cannot make a huge message.
QUOTE_CHARS = 32

# The operators of fixed arity: head -> (arity, builder, whether the
# builder multiplies its operands' terms, so that MAX_TERMS caps it).
_FIXED_ARITY = {
    "mul": (2, poly_mul, True),
    "as": (3, expand_associator, True),
    "com": (2, poly_commutator, True),
    "sub": (2, operator.sub, False),
    "neg": (1, operator.neg, False),
}

_VAR_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_INT_RE = re.compile(r"^[0-9]+$")  # ASCII only: \d takes any script's digits


def _quote(text):
    """repr(text), cut to its first QUOTE_CHARS characters and its length
    when it is longer."""
    if len(text) <= QUOTE_CHARS:
        return repr(text)
    return "%r... (%d characters)" % (text[:QUOTE_CHARS], len(text))


def _tokenize(s):
    toks = []
    i = 0
    n = len(s)
    while i < n:
        ch = s[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()":
            toks.append((ch, i))
            i += 1
            continue
        j = i
        while j < n and not s[j].isspace() and s[j] not in "()":
            j += 1
        toks.append((s[i:j], i))
        i = j
    return toks


class _Parser:
    def __init__(self, s):
        self.text = s
        self.toks = _tokenize(s)
        self.pos = 0
        self.depth = 0
        self.alpha_power = 0  # sum of the enclosing (a K ...) exponents

    def error(self, msg, at=None):
        where = self.toks[at][1] if at is not None and at < len(self.toks) else len(self.text)
        raise ValueError("%s (at position %d)" % (msg, where))

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def next(self):
        if self.pos >= len(self.toks):
            self.error("unexpected end of input")
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, what):
        tok, _ = self.next()
        if tok != what:
            self.error("expected %r, got %s" % (what, _quote(tok)), self.pos - 1)

    def parse_term(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.error("terms nest deeper than %d levels" % MAX_DEPTH, self.pos)
        term = self._term()
        self.depth -= 1
        return term

    def _term(self):
        tok, _ = self.next()
        if tok == ")":
            self.error("unexpected ')'", self.pos - 1)
        if tok != "(":
            if not _VAR_RE.match(tok):
                self.error("bad variable name %s" % _quote(tok), self.pos - 1)
            return var(tok)
        start = self.pos - 1
        head, _ = self.next()
        if head in _FIXED_ARITY:
            arity, build, expands = _FIXED_ARITY[head]
            operands = [self.parse_term() for _ in range(arity)]
            self.expect(")")
            if expands and prod(p.num_terms() for p in operands) > MAX_TERMS:
                self.error("(%s ...) would expand to more than %d terms" % (head, MAX_TERMS),
                           start)
            return build(*operands)
        if head == "a":
            ktok, _ = self.next()
            if not _INT_RE.match(ktok):
                self.error("alpha power must be a non-negative integer, got %s" % _quote(ktok),
                           self.pos - 1)
            # Compare lengths first: int() refuses numerals of over 4300 digits.
            if (len(ktok.lstrip("0")) > len(str(MAX_ALPHA_POWER))
                    or self.alpha_power + int(ktok) > MAX_ALPHA_POWER):
                self.error("alpha powers on one leaf add up to more than %d" % MAX_ALPHA_POWER,
                           self.pos - 1)
            k = int(ktok)
            self.alpha_power += k
            p = self.parse_term()
            self.alpha_power -= k
            self.expect(")")
            return p.alpha(k)
        if head == "add":
            total = self.parse_term()
            while self.peek() != ")":
                total = total + self.parse_term()
            self.expect(")")
            return total
        if head == "scale":
            ctok, _ = self.next()
            try:
                c = parse_scalar(ctok)
            except ValueError:
                self.error("bad scalar literal %s" % _quote(ctok), self.pos - 1)
            p = self.parse_term()
            self.expect(")")
            return p.scale(c)
        self.error("unknown operator %s" % _quote(head), self.pos - 1)

    def done(self):
        if self.pos != len(self.toks):
            self.error("trailing input", self.pos)


def parse_term(s):
    """Parse a term into a HomPolynomial."""
    p = _Parser(s)
    out = p.parse_term()
    p.done()
    return out


def parse_identity(s):
    """Parse (= lhs rhs) into a pair of HomPolynomials."""
    p = _Parser(s)
    p.expect("(")
    tok, _ = p.next()
    if tok != "=":
        p.error("identities must start with (=, got %s" % _quote(tok), p.pos - 1)
    lhs = p.parse_term()
    rhs = p.parse_term()
    p.expect(")")
    p.done()
    return lhs, rhs


def parse_monomial(s):
    """Parse a term that must be a single monomial with coefficient 1."""
    poly = parse_term(s)
    terms = poly.terms()
    if len(terms) != 1 or terms[0][1] != 1:
        raise ValueError("expected a single monomial with coefficient 1: %s" % _quote(s))
    return terms[0][0]


def term_to_dsl(m):
    """Serialize a HomMonomial (or its tree) back to DSL syntax."""
    tree = m.tree if isinstance(m, HomMonomial) else m

    def go(t):
        if t[0] == "v":
            return t[1] if t[2] == 0 else "(a %d %s)" % (t[2], t[1])
        return "(mul %s %s)" % (go(t[1]), go(t[2]))

    return go(tree)
