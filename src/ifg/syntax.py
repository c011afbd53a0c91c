"""Formula language: terms, atoms, formula AST, parser, printer, indexing.

Formulas are built from atoms with negation ~, slashed disjunction \\/{J},
and slashed existential quantifiers E vn/{J}.  Conjunction /\\{J} and the
universal quantifier A vn/{J} are desugared:

    p /\\{J} q      becomes   ~(~p \\/{J} ~q)
    A vn/{J} p      becomes   ~E vn/{J} ~p

Terms (Var, Const, App) and atoms (Eq, Rel) are immutable values with
__slots__: equal when of the same class with equal fields, hashed by those
fields, and shown as Name(field=value, ...), as frozen dataclasses would
be, without the import of dataclasses and the class building it costs
every process at start-up.

Nodes are interned: structurally equal subformulas are shared and carry a
stable uid, so evaluators can memoize by uid.
"""

import re
import weakref

from .errors import IfgError, ParseError, GuardExceeded

MAX_FORMULA_DEPTH = 16


# ---------------------------------------------------------------------------
# Terms and atoms


_set = object.__setattr__


class _Value:
    """An immutable value, compared and hashed by its fields as a frozen
    dataclass would be: equal to an instance of the same class with equal
    fields.  A subclass lists its fields in _fields, sets them in __init__
    through _set, and spells out __eq__ and __hash__ on them, as dataclass
    generates them: node interning hashes every atom, and a shared method
    reading _fields would cost one more call per level of the term.
    Assignment and deletion raise AttributeError."""

    __slots__ = ()
    _fields = ()

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class Var(_Value):
    __slots__ = _fields = ("index",)

    def __init__(self, index):
        _set(self, "index", index)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.index == other.index
        return NotImplemented

    def __hash__(self):
        return hash((self.index,))

    def __str__(self):
        return "v%d" % self.index


class Const(_Value):
    __slots__ = _fields = ("name",)

    def __init__(self, name):
        _set(self, "name", name)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.name == other.name
        return NotImplemented

    def __hash__(self):
        return hash((self.name,))

    def __str__(self):
        return self.name


class _Named(_Value):
    """A name applied to a tuple of terms: App (a term) or Rel (an atom)."""

    __slots__ = _fields = ("name", "args")

    def __init__(self, name, args):
        _set(self, "name", name)
        _set(self, "args", args)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.name, self.args) == (other.name, other.args)
        return NotImplemented

    def __hash__(self):
        return hash((self.name, self.args))

    def __str__(self):
        return "%s(%s)" % (self.name, ",".join(str(a) for a in self.args))


class App(_Named):
    __slots__ = ()


class Rel(_Named):
    __slots__ = ()


class Eq(_Value):
    __slots__ = _fields = ("lhs", "rhs")

    def __init__(self, lhs, rhs):
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.lhs, self.rhs) == (other.lhs, other.rhs)
        return NotImplemented

    def __hash__(self):
        return hash((self.lhs, self.rhs))

    def __str__(self):
        return "%s=%s" % (self.lhs, self.rhs)


def term_vars(term):
    """Set of variable indices appearing in a term."""
    if isinstance(term, Var):
        return {term.index}
    elif isinstance(term, Const):
        return set()
    elif isinstance(term, App):
        out = set()
        for a in term.args:
            out |= term_vars(a)
        return out
    else:
        raise IfgError("not a term: %r" % (term,))


def atom_vars(atom):
    """Set of variable indices appearing in an atom."""
    if isinstance(atom, Eq):
        return term_vars(atom.lhs) | term_vars(atom.rhs)
    elif isinstance(atom, Rel):
        out = set()
        for a in atom.args:
            out |= term_vars(a)
        return out
    else:
        raise IfgError("not an atom: %r" % (atom,))


# ---------------------------------------------------------------------------
# Formula nodes (interned)


class Node:
    __slots__ = ("uid", "height", "freevars", "maxindex", "__weakref__")


class Atomic(Node):
    __slots__ = ("atom",)


class Not(Node):
    __slots__ = ("child",)


class Or(Node):
    __slots__ = ("jset", "left", "right")


class Exists(Node):
    __slots__ = ("n", "jset", "child")


# Nodes are held weakly: a node lives as long as some formula or parent node
# uses it.  Uids are never reused, so a memo keyed by uid cannot confuse a
# collected node with a later one.
_intern = weakref.WeakValueDictionary()
_next_uid = 0


def _register(node):
    global _next_uid
    node.uid = _next_uid
    _next_uid += 1
    return node


def atomic(atom):
    key = ("atom", atom)
    node = _intern.get(key)
    if node is None:
        node = Atomic()
        node.atom = atom
        node.height = 1
        node.freevars = frozenset(atom_vars(atom))
        node.maxindex = max(node.freevars, default=-1)
        _intern[key] = _register(node)
    return node


def negate(child):
    key = ("not", child.uid)
    node = _intern.get(key)
    if node is None:
        node = Not()
        node.child = child
        node.height = child.height + 1
        node.freevars = child.freevars
        node.maxindex = child.maxindex
        _intern[key] = _register(node)
    return node


def disj(jset, left, right):
    jset = frozenset(jset)
    key = ("or", jset, left.uid, right.uid)
    node = _intern.get(key)
    if node is None:
        node = Or()
        node.jset = jset
        node.left = left
        node.right = right
        node.height = max(left.height, right.height) + 1
        node.freevars = left.freevars | right.freevars
        node.maxindex = max(left.maxindex, right.maxindex, max(jset, default=-1))
        _intern[key] = _register(node)
    return node


def exists(n, jset, child):
    jset = frozenset(jset)
    key = ("exists", n, jset, child.uid)
    node = _intern.get(key)
    if node is None:
        node = Exists()
        node.n = n
        node.jset = jset
        node.child = child
        node.height = child.height + 1
        node.freevars = child.freevars - {n}
        node.maxindex = max(child.maxindex, n, max(jset, default=-1))
        _intern[key] = _register(node)
    return node


def conj(jset, left, right):
    return negate(disj(jset, negate(left), negate(right)))


def forall(n, jset, child):
    return negate(exists(n, jset, negate(child)))


def children(node):
    """The (step, child) pairs of a node, in order.

    A subformula position is the tuple of steps from the root: 0 under ~,
    1 and 2 to the left and right of \\/, 3 under E.  This is the one
    place that numbers them.
    """
    if isinstance(node, Not):
        return ((0, node.child),)
    elif isinstance(node, Or):
        return ((1, node.left), (2, node.right))
    elif isinstance(node, Exists):
        return ((3, node.child),)
    return ()


def render(node):
    """Formula text; parse(render(node), nvars) recovers the same node."""
    if isinstance(node, Atomic):
        return str(node.atom)
    elif isinstance(node, Not):
        return "~" + render(node.child)
    elif isinstance(node, Or):
        return "(%s \\/{%s} %s)" % (
            render(node.left), _render_idx(node.jset), render(node.right))
    elif isinstance(node, Exists):
        return "E v%d/{%s} %s" % (node.n, _render_idx(node.jset),
                                  render(node.child))
    else:
        raise IfgError("not a formula node: %r" % (node,))


def _render_idx(jset):
    return ",".join(str(i) for i in sorted(jset))


# ---------------------------------------------------------------------------
# Formula: a root node plus the number of variables N


class Formula:
    """An IFG formula over variables v0..v(N-1)."""

    def __init__(self, root, nvars):
        if nvars < 0:
            raise IfgError("nvars must be >= 0")
        if root.maxindex >= nvars:
            raise IfgError(
                "index %d out of range for %d variables"
                % (root.maxindex, nvars))
        if root.height > MAX_FORMULA_DEPTH:
            raise GuardExceeded(
                "formula depth %d exceeds limit %d"
                % (root.height, MAX_FORMULA_DEPTH))
        self.root = root
        self.nvars = nvars

    def __eq__(self, other):
        return (isinstance(other, Formula) and self.root is other.root
                and self.nvars == other.nvars)

    def __hash__(self):
        return hash((self.root.uid, self.nvars))

    def __str__(self):
        return render(self.root)

    def subformulas(self):
        """List of (position, node, polarity); polarity is True for even 0s."""
        out = []

        def walk(node, pos, zeros):
            out.append((pos, node, zeros % 2 == 0))
            for step, child in children(node):
                walk(child, pos + (step,), zeros + (step == 0))

        walk(self.root, (), 0)
        return out

    def node_at(self, pos):
        node = self.root
        for step in pos:
            node = dict(children(node)).get(step)
            if node is None:
                raise IfgError("invalid position %r" % (pos,))
        return node

    def unbound_sets(self):
        """Map position -> set of indices unbound (quantified above)."""
        out = {}

        def walk(node, pos, j):
            out[pos] = j
            if isinstance(node, Exists):
                j = j | {node.n}
            for step, child in children(node):
                walk(child, pos + (step,), j)

        walk(self.root, (), frozenset())
        return out

    def is_sentence(self):
        """True when every variable use sits below a quantifier binding it."""
        return not self.root.freevars


def checked_root(formula, nvars):
    """The root of a Formula or bare node, checked against nvars variables.

    A Formula must have exactly nvars variables; a bare node may use no
    index at or above nvars.
    """
    if isinstance(formula, Formula):
        if formula.nvars != nvars:
            raise IfgError("formula has %d variables, expected %d"
                           % (formula.nvars, nvars))
        return formula.root
    if formula.maxindex >= nvars:
        raise IfgError("index %d out of range for %d variables"
                       % (formula.maxindex, nvars))
    return formula


# ---------------------------------------------------------------------------
# Parser

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<or>\\/)
  | (?P<and>/\\)
  | (?P<word>[A-Za-z0-9_]+)
  | (?P<punct>[~(){}=,/])
""", re.VERBOSE)

_VAR_RE = re.compile(r"^v([0-9]+)$")


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError("unexpected character %r at offset %d"
                             % (text[i], i))
        if m.lastgroup == "or":
            tokens.append(("OR", "\\/", i))
        elif m.lastgroup == "and":
            tokens.append(("AND", "/\\", i))
        elif m.lastgroup == "word":
            tokens.append(("WORD", m.group(), i))
        elif m.lastgroup == "punct":
            tokens.append((m.group(), m.group(), i))
        i = m.end()
    tokens.append(("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError("expected %r but found %r at offset %d"
                             % (kind, tok[1], tok[2]))
        return tok

    def fail(self, message):
        tok = self.peek()
        raise ParseError("%s at offset %d" % (message, tok[2]))

    def formula(self, depth=0):
        if depth >= MAX_FORMULA_DEPTH:
            raise GuardExceeded("formula depth exceeds limit %d"
                                % MAX_FORMULA_DEPTH)
        kind, value, _ = self.peek()
        if kind == "~":
            self.next()
            return negate(self.formula(depth + 1))
        if kind == "(":
            self.next()
            left = self.formula(depth + 1)
            kind, value, _ = self.peek()
            if kind == ")":
                self.next()
                return left
            if kind not in ("OR", "AND"):
                self.fail("expected operator or ')'")
            self.next()
            jset = self.idxset()
            right = self.formula(depth + 1)
            self.expect(")")
            if kind == "OR":
                return disj(jset, left, right)
            return conj(jset, left, right)
        if kind == "WORD" and value in ("E", "A"):
            nxt = self.tokens[self.pos + 1]
            if nxt[0] == "WORD" and _VAR_RE.match(nxt[1]):
                self.next()
                n = int(_VAR_RE.match(self.next()[1]).group(1))
                self.expect("/")
                jset = self.idxset()
                child = self.formula(depth + 1)
                if value == "E":
                    return exists(n, jset, child)
                return forall(n, jset, child)
        return self.atom()

    def idxset(self):
        self.expect("{")
        jset = set()
        if self.peek()[0] == "WORD":
            while True:
                tok = self.next()
                if tok[0] != "WORD" or not tok[1].isdigit():
                    raise ParseError("expected index at offset %d" % tok[2])
                jset.add(int(tok[1]))
                if self.peek()[0] != ",":
                    break
                self.next()
        self.expect("}")
        return jset

    def atom(self):
        term = self.term()
        if self.peek()[0] == "=":
            self.next()
            return atomic(Eq(term, self.term()))
        if isinstance(term, App):
            return atomic(Rel(term.name, term.args))
        self.fail("expected '=' after term")

    def term(self):
        tok = self.next()
        if tok[0] != "WORD":
            raise ParseError("expected term at offset %d" % tok[2])
        m = _VAR_RE.match(tok[1])
        if m:
            return Var(int(m.group(1)))
        if self.peek()[0] == "(":
            self.next()
            args = [self.term()]
            while self.peek()[0] == ",":
                self.next()
                args.append(self.term())
            self.expect(")")
            return App(tok[1], tuple(args))
        return Const(tok[1])


def parse(text, nvars):
    """Parse formula text into a Formula over nvars variables."""
    parser = _Parser(text)
    root = parser.formula()
    tok = parser.peek()
    if tok[0] != "EOF":
        raise ParseError("unexpected %r at offset %d" % (tok[1], tok[2]))
    return Formula(root, nvars)
