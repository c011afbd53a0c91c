"""Set algebras of team meanings: operations, laws, generated subalgebras.

An element is a pair (plus, minus) of team-set bitmasks over a valuation
space.  The operations mirror the semantic clauses: negation swaps the two
coordinates, slashed sum builds saturated covers, slashed product is the De
Morgan dual, and cylindrification existentially projects one variable.
They are the one implementation of the connectives on team sets: a
formula's meaning (`trump.Evaluator.element`) is its fold into them.
An operation only pairs coordinates, read off De Morgan: +_J is
(sum(J, x+, y+), x- & y-) and *_J is (x+ & y+, sum(J, x-, y-));
C_{n,J} is (exists(n, J, x+), exists_minus(n, x-)) and its dual is
(exists_minus(n, x+), exists(n, J, x-)).  `Downsets` owns those three
team-set operators, their one memo each and the choice of kernel.  A
context keeps team sets over all 2**count teams, so it refuses spaces of
more than MEANING_GUARD valuations.

The law registry collects the equations and inequalities these algebras
satisfy, each with its exact side conditions, plus a handful of classical
laws that are expected to fail and do.  A law check reads the operations
on its pool elements that its loops would repeat (x +_J y, x *_J y,
C_{n,J}(x)) from tables built once per call and dropped with it.  The
laws expected to fail stop at their first counterexample and build none.
"""

import itertools
from collections import namedtuple

from .errors import IfgError, GuardExceeded
from . import syntax
from .model import (MEANING_GUARD, Space, Structure, atom_mask, bits,
                    eval_atomic)
from .downsets import Downsets

GENERATION_CAP = 20000


Element = namedtuple("Element", "plus minus")


class AlgebraContext:
    """Operations on elements over one valuation space."""

    def __init__(self, size, nvars):
        self.space = Space(size, nvars)
        if self.space.count > MEANING_GUARD:
            raise GuardExceeded("team enumeration needs %d valuations "
                                "(limit %d)" % (self.space.count,
                                                MEANING_GUARD))
        self.size = size
        self.nvars = nvars
        self.all_teamsets = (1 << (1 << self.space.count)) - 1
        self.zero = Element(1, self.all_teamsets)
        self.one = Element(self.all_teamsets, 1)
        self.omega = Element(1, 1)
        self.mho = Element(self.all_teamsets, self.all_teamsets)
        self.full_j = frozenset(range(nvars))
        self.downsets = Downsets(self.space)
        self._diag = {}

    def diag(self, i, j):
        """The diagonal element: meaning of the atom vi = vj."""
        hit = self._diag.get((i, j))
        if hit is None:
            atom = syntax.Eq(syntax.Var(i), syntax.Var(j))
            hit = self.flat(atom_mask(Structure(self.size), self.space, atom))
            self._diag[(i, j)] = hit
        return hit

    def flat(self, team):
        """The element with plus the powerset of team, minus its complement."""
        space = self.space
        return Element(space.powerset_mask(team),
                       space.powerset_mask(space.full_team & ~team))

    def neg(self, x):
        return Element(x.minus, x.plus)

    def add(self, jset, x, y):
        return Element(self.downsets.sum(frozenset(jset), x.plus, y.plus),
                       x.minus & y.minus)

    def mul(self, jset, x, y):
        return Element(x.plus & y.plus,
                       self.downsets.sum(frozenset(jset), x.minus, y.minus))

    def cyl(self, n, jset, x):
        downsets = self.downsets
        return Element(downsets.exists(n, frozenset(jset), x.plus),
                       downsets.exists_minus(n, x.minus))

    def dual_cyl(self, n, jset, x):
        downsets = self.downsets
        return Element(downsets.exists_minus(n, x.plus),
                       downsets.exists(n, frozenset(jset), x.minus))

    def cyl_chain(self, x, jsets):
        """C_{0,J_0}(C_{1,J_1}(... C_{N-1,J_{N-1}}(x)...))."""
        for n in reversed(range(self.nvars)):
            x = self.cyl(n, jsets[n], x)
        return x

    def jsets(self):
        return [frozenset(combo) for k in range(self.nvars + 1)
                for combo in itertools.combinations(range(self.nvars), k)]

    def render(self, x):
        space = self.space
        return "plus=[%s] minus=[%s]" % (
            ",".join(space.render_teams(x.plus)),
            ",".join(space.render_teams(x.minus)))

    def dump(self, elements):
        lines = ["base=%d dim=%d count=%d"
                 % (self.size, self.nvars, len(elements))]
        for x in elements:
            lines.append(self.render(x))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Order and classification


def leq_plus(x, y):
    return x.plus & ~y.plus == 0


def leq_minus(x, y):
    return x.minus & ~y.minus == 0


def leq(x, y):
    return leq_plus(x, y) and leq_minus(y, x)


def is_rooted(x):
    return bool(x.plus & 1 and x.minus & 1)


def is_suit(ctx, mask):
    """Nonempty and closed under subsets."""
    return mask != 0 and ctx.downsets.is_downset(mask)


def is_pair_of_suits(ctx, x):
    return is_suit(ctx, x.plus) and is_suit(ctx, x.minus)


def is_double_suit(ctx, x):
    return is_pair_of_suits(ctx, x) and x.plus & x.minus == 1


def is_flat(ctx, x):
    """True when plus is the full powerset of the union of its teams."""
    union = 0
    for team in bits(x.plus):
        union |= team
    return x.plus == ctx.space.powerset_mask(union)


def is_fixed_point(x):
    return x.plus == x.minus


def classify(ctx, x):
    return {
        "rooted": is_rooted(x),
        "pair_of_suits": is_pair_of_suits(ctx, x),
        "double_suit": is_double_suit(ctx, x),
        "flat": is_flat(ctx, x),
        "fixed_point": is_fixed_point(x),
    }


# ---------------------------------------------------------------------------
# Generated subalgebras


def generate_subalgebra(ctx, generators, cap=GENERATION_CAP, target=None):
    """Close the generators under all operations.

    Returns the generated universe in a deterministic order.  When target is
    given, returns True or False as soon as membership is settled instead.
    """
    elems = []
    seen = set()

    def push(x):
        if x not in seen:
            seen.add(x)
            elems.append(x)
            if len(elems) > cap:
                raise GuardExceeded("subalgebra exceeds %d elements" % cap)

    push(ctx.zero)
    push(ctx.one)
    for i in range(ctx.nvars):
        for j in range(ctx.nvars):
            push(ctx.diag(i, j))
    for g in generators:
        push(g)
    jsets = ctx.jsets()
    done_unary = 0
    done_pairs = 0
    while True:
        if target is not None and target in seen:
            return True
        grew = False
        n_elems = len(elems)
        for idx in range(done_unary, n_elems):
            x = elems[idx]
            push(ctx.neg(x))
            for n in range(ctx.nvars):
                for jset in jsets:
                    push(ctx.cyl(n, jset, x))
        done_unary = n_elems
        for a in range(n_elems):
            start = max(a, done_pairs)
            for b in range(start, n_elems):
                for jset in jsets:
                    push(ctx.add(jset, elems[a], elems[b]))
                    push(ctx.mul(jset, elems[a], elems[b]))
        done_pairs = n_elems
        grew = len(elems) > n_elems
        if not grew:
            break
    if target is not None:
        return target in seen
    return elems


def _terms(structure, nvars):
    """All terms of depth at most two over the structure's signature."""
    depth1 = [syntax.Var(i) for i in range(nvars)]
    depth1 += [syntax.Const(name) for name in sorted(structure.constants)]
    out = list(depth1)
    for name in sorted(structure.functions):
        arity, _ = structure.functions[name]
        for args in itertools.product(depth1, repeat=arity):
            out.append(syntax.App(name, args))
    return out


def atomic_formulas(structure, nvars):
    """All atoms with terms of depth at most two."""
    terms = _terms(structure, nvars)
    atoms = [syntax.Eq(s, t) for s, t in itertools.product(terms, repeat=2)]
    for name in sorted(structure.relations):
        arity, _ = structure.relations[name]
        for args in itertools.product(terms, repeat=arity):
            atoms.append(syntax.Rel(name, args))
    return atoms


def _atom_seeds(structure, nvars):
    """The context and the meanings of the atomic formulas as elements.

    Returns (None, []) when the signature admits no atoms at all.
    """
    atoms = atomic_formulas(structure, nvars)
    if not atoms:
        return None, []
    ctx = AlgebraContext(structure.size, nvars)
    return ctx, [ctx.flat(atom_mask(structure, ctx.space, atom))
                 for atom in atoms]


def cyls_of(structure, nvars, cap=GENERATION_CAP):
    """The algebra generated by the meanings of atomic formulas.

    Returns the empty list when the signature admits no atoms at all.
    """
    ctx, seeds = _atom_seeds(structure, nvars)
    if ctx is None:
        return []
    return generate_subalgebra(ctx, seeds, cap)


def omega_in_cyls(structure, nvars, cap=GENERATION_CAP):
    """Whether the identity-crisis element belongs to the generated algebra."""
    ctx, seeds = _atom_seeds(structure, nvars)
    if ctx is None:
        return False
    return generate_subalgebra(ctx, seeds, cap, target=ctx.omega)


def omega_expected(structure, nvars):
    """Predicts omega membership from the structure and dimension alone.

    Uses terms of depth at most two, matching the atom pool of cyls_of.
    """
    if structure.size == 0:
        return True
    if structure.size == 1 or nvars == 0:
        return False
    if nvars >= 2:
        return True
    for atom in atomic_formulas(structure, 1):
        truths = {eval_atomic(structure, atom, (a,))
                  for a in range(structure.size)}
        if truths == {True, False}:
            return True
    return False


# ---------------------------------------------------------------------------
# Law registry

_LAWS = {}


def _law(name, expected_pass):
    def wrap(fn):
        _LAWS[name] = (expected_pass, fn)
        return fn
    return wrap


def law_names():
    return sorted(_LAWS)


def law_expected(name):
    return _LAWS[name][0]


def check_law(name, ctx, pool):
    """Run one law; returns None when it holds, else a counterexample text."""
    if name not in _LAWS:
        raise IfgError("unknown law %r" % name)
    return _LAWS[name][1](ctx, pool)


def run_laws(ctx, pool, names=None):
    """Check laws; returns a list of (name, expected_pass, holds, detail)."""
    out = []
    for name in names or law_names():
        detail = check_law(name, ctx, pool)
        out.append((name, law_expected(name), detail is None, detail))
    return out


def _pairs(pool):
    return itertools.product(pool, repeat=2)


def _triples(pool):
    return itertools.product(pool, repeat=3)


def _table(op, jsets, pool):
    """op(J, pool[a], pool[b]) at [J][a][b], for every J of jsets."""
    return {j: [[op(j, x, y) for y in pool] for x in pool] for j in jsets}


def _cyl_table(op, n, jsets, pool):
    """op(n, J, pool[a]) at [J][a], for every J of jsets."""
    return {j: [op(n, j, x) for x in pool] for j in jsets}


def _below(pool):
    """The index pairs (a, b) with pool[a] <= pool[b], in _pairs order."""
    return [(a, b) for a, b in _pairs(range(len(pool)))
            if leq(pool[a], pool[b])]


@_law("commutativity", True)
def _commutativity(ctx, pool):
    jsets = ctx.jsets()
    adds, muls = _table(ctx.add, jsets, pool), _table(ctx.mul, jsets, pool)
    for j in jsets:
        for a, b in _pairs(range(len(pool))):
            if adds[j][a][b] != adds[j][b][a]:
                return "sum J=%s" % sorted(j)
            if muls[j][a][b] != muls[j][b][a]:
                return "product J=%s" % sorted(j)
    return None


@_law("associativity-same-slash", True)
def _associativity_same(ctx, pool):
    jsets = ctx.jsets()
    adds, muls = _table(ctx.add, jsets, pool), _table(ctx.mul, jsets, pool)
    for j in jsets:
        add, mul = adds[j], muls[j]
        for a, b, c in _triples(range(len(pool))):
            x, z = pool[a], pool[c]
            if ctx.add(j, add[a][b], z) != ctx.add(j, x, add[b][c]):
                return "sum J=%s" % sorted(j)
            if ctx.mul(j, mul[a][b], z) != ctx.mul(j, x, mul[b][c]):
                return "product J=%s" % sorted(j)
    return None


@_law("associativity-nested-slash", True)
def _associativity_nested(ctx, pool):
    jsets = ctx.jsets()
    adds, muls = _table(ctx.add, jsets, pool), _table(ctx.mul, jsets, pool)
    for j in jsets:
        for k in jsets:
            if not j <= k:
                continue
            for a, b, c in _triples(range(len(pool))):
                x, z = pool[a], pool[c]
                left = ctx.add(k, adds[j][a][b], z)
                right = ctx.add(j, x, adds[k][b][c])
                if not leq_plus(left, right) or left.minus != right.minus:
                    return "sum J=%s K=%s" % (sorted(j), sorted(k))
                left = ctx.mul(k, muls[j][a][b], z)
                right = ctx.mul(j, x, muls[k][b][c])
                if left.plus != right.plus or not leq_minus(left, right):
                    return "product J=%s K=%s" % (sorted(j), sorted(k))
    return None


@_law("associativity-mixed-eq", False)
def _associativity_mixed_eq(ctx, pool):
    for j in ctx.jsets():
        for k in ctx.jsets():
            for x, y, z in _triples(pool):
                if (ctx.add(k, ctx.add(j, x, y), z)
                        != ctx.add(j, x, ctx.add(k, y, z))):
                    return "sum J=%s K=%s" % (sorted(j), sorted(k))
    return None


@_law("unit-elements", True)
def _unit_elements(ctx, pool):
    for j in ctx.jsets():
        for x in pool:
            if ctx.add(j, x, ctx.zero) != x:
                return "x + 0 != x, J=%s" % sorted(j)
            if ctx.mul(j, x, ctx.one) != x:
                return "x * 1 != x, J=%s" % sorted(j)
    return None


@_law("rooted-annihilators", True)
def _rooted_annihilators(ctx, pool):
    for j in ctx.jsets():
        for x in pool:
            if not is_rooted(x):
                continue
            if ctx.mul(j, x, ctx.zero) != ctx.zero:
                return "x * 0 != 0, J=%s" % sorted(j)
            if ctx.add(j, x, ctx.one) != ctx.one:
                return "x + 1 != 1, J=%s" % sorted(j)
    return None


@_law("fixed-points", True)
def _fixed_points(ctx, pool):
    for c, label in ((ctx.omega, "omega"), (ctx.mho, "mho")):
        if ctx.neg(c) != c:
            return "~%s != %s" % (label, label)
        for j in ctx.jsets():
            if ctx.add(j, c, c) != c or ctx.mul(j, c, c) != c:
                return "%s not idempotent, J=%s" % (label, sorted(j))
    return None


@_law("omega-between", True)
def _omega_between(ctx, pool):
    for x, y in _pairs(pool):
        if not (is_double_suit(ctx, x) and is_double_suit(ctx, y)):
            continue
        if not (leq(x, ctx.omega) and leq(ctx.omega, y)):
            continue
        for j in ctx.jsets():
            if ctx.mul(j, x, y) != x or ctx.add(j, x, y) != y:
                return "x <= omega <= y, J=%s" % sorted(j)
    return None


@_law("rooted-sum-grows", True)
def _rooted_sum_grows(ctx, pool):
    for j in ctx.jsets():
        for x, y in _pairs(pool):
            if not is_rooted(y):
                continue
            if not leq_plus(x, ctx.add(j, x, y)):
                return "plus of x not in x + y, J=%s" % sorted(j)
            if not leq_minus(x, ctx.mul(j, x, y)):
                return "minus of x not in x * y, J=%s" % sorted(j)
    return None


@_law("full-slash-union", True)
def _full_slash_union(ctx, pool):
    n = ctx.full_j
    for x, y in _pairs(pool):
        if not (is_rooted(x) and is_rooted(y)):
            continue
        if ctx.add(n, x, y).plus != x.plus | y.plus:
            return "(x +_N y)+ != x+ | y+"
        if ctx.mul(n, x, y).minus != x.minus | y.minus:
            return "(x *_N y)- != x- | y-"
    return None


@_law("absorption-bounds", True)
def _absorption_bounds(ctx, pool):
    jsets = ctx.jsets()
    rooted = [x for x in pool if is_rooted(x)]
    adds = _table(ctx.add, jsets, rooted)
    muls = _table(ctx.mul, jsets, rooted)
    for j in jsets:
        for k in jsets:
            for a, b in _pairs(range(len(rooted))):
                x = rooted[a]
                up = ctx.add(j, x, muls[k][a][b])
                if not leq_plus(x, up) or up.minus != x.minus:
                    return "x + (x * y), J=%s K=%s" % (sorted(j), sorted(k))
                down = ctx.mul(j, x, adds[k][a][b])
                if down.plus != x.plus or not leq_minus(x, down):
                    return "x * (x + y), J=%s K=%s" % (sorted(j), sorted(k))
    return None


@_law("absorption-flat", True)
def _absorption_flat(ctx, pool):
    for j in ctx.jsets():
        for k in ctx.jsets():
            for x, y in _pairs(pool):
                if not (is_rooted(x) and is_rooted(y)):
                    continue
                if is_flat(ctx, x):
                    if ctx.add(j, x, ctx.mul(k, x, y)) != x:
                        return "flat x + (x * y), J=%s K=%s" % (sorted(j),
                                                                sorted(k))
                if is_flat(ctx, ctx.neg(x)):
                    if ctx.mul(j, x, ctx.add(k, x, y)) != x:
                        return "coflat x * (x + y), J=%s K=%s" % (sorted(j),
                                                                  sorted(k))
    return None


@_law("absorption-full-slash", True)
def _absorption_full_slash(ctx, pool):
    n = ctx.full_j
    for j in ctx.jsets():
        for x, y in _pairs(pool):
            if not (is_rooted(x) and is_rooted(y)):
                continue
            if ctx.add(n, x, ctx.mul(j, x, y)) != x:
                return "x +_N (x *_J y) != x, J=%s" % sorted(j)
            if ctx.mul(n, x, ctx.add(j, x, y)) != x:
                return "x *_N (x +_J y) != x, J=%s" % sorted(j)
    return None


@_law("absorption-eq", False)
def _absorption_eq(ctx, pool):
    for j in ctx.jsets():
        for k in ctx.jsets():
            for x, y in _pairs(pool):
                if not (is_rooted(x) and is_rooted(y)):
                    continue
                if ctx.add(j, x, ctx.mul(k, x, y)) != x:
                    return "x + (x * y) != x, J=%s K=%s" % (sorted(j),
                                                            sorted(k))
    return None


@_law("order-from-ops", True)
def _order_from_ops(ctx, pool):
    n = ctx.full_j
    for x, y in _pairs(pool):
        if not (is_rooted(x) and is_rooted(y)):
            continue
        a = leq(x, y)
        b = ctx.add(n, x, y) == y
        c = ctx.mul(n, x, y) == x
        if not (a == b == c):
            return "order and lattice order disagree"
    return None


@_law("rooted-bounds", True)
def _rooted_bounds(ctx, pool):
    for x in pool:
        if is_rooted(x) and not (leq(ctx.zero, x) and leq(x, ctx.one)):
            return "0 <= x <= 1 fails"
    return None


@_law("slash-antitone", True)
def _slash_antitone(ctx, pool):
    jsets = ctx.jsets()
    adds, muls = _table(ctx.add, jsets, pool), _table(ctx.mul, jsets, pool)
    for j in jsets:
        for k in jsets:
            if not j <= k:
                continue
            for a, b in _pairs(range(len(pool))):
                if not leq(adds[k][a][b], adds[j][a][b]):
                    return "x +_K y > x +_J y, J=%s K=%s" % (sorted(j),
                                                             sorted(k))
                if not leq(muls[j][a][b], muls[k][a][b]):
                    return "x *_J y > x *_K y, J=%s K=%s" % (sorted(j),
                                                             sorted(k))
    return None


@_law("op-chain", True)
def _op_chain(ctx, pool):
    n = ctx.full_j
    empty = frozenset()
    for x in pool:
        if not is_rooted(x):
            continue
        if ctx.mul(n, x, x) != x or ctx.add(n, x, x) != x:
            return "x *_N x != x or x +_N x != x"
        low, high = ctx.mul(empty, x, x), ctx.add(empty, x, x)
        for j in ctx.jsets():
            chain = [low, ctx.mul(j, x, x), x, ctx.add(j, x, x), high]
            for a, b in zip(chain, chain[1:]):
                if not leq(a, b):
                    return "chain broken at J=%s" % sorted(j)
    return None


@_law("op-monotone", True)
def _op_monotone(ctx, pool):
    jsets = ctx.jsets()
    below = _below(pool)
    adds, muls = _table(ctx.add, jsets, pool), _table(ctx.mul, jsets, pool)
    for j in jsets:
        add, mul = adds[j], muls[j]
        for a, a2 in below:
            for b, b2 in below:
                if not leq(add[a][b], add[a2][b2]):
                    return "sum not monotone, J=%s" % sorted(j)
                if not leq(mul[a][b], mul[a2][b2]):
                    return "product not monotone, J=%s" % sorted(j)
    return None


@_law("distributive-inclusion", True)
def _distributive_inclusion(ctx, pool):
    suits = [a for a, x in enumerate(pool) if is_double_suit(ctx, x)]
    if not suits:
        return None
    jsets = ctx.jsets()
    adds, muls = _table(ctx.add, jsets, pool), _table(ctx.mul, jsets, pool)
    rest = range(len(pool))
    for j in jsets:
        for k in jsets:
            for a, b, c in itertools.product(suits, rest, rest):
                x = pool[a]
                left = ctx.mul(j, x, adds[k][b][c])
                right = ctx.add(k, muls[j][a][b], muls[j][a][c])
                if not leq_plus(left, right) or not leq_minus(left, right):
                    return "x * (y + z), J=%s K=%s" % (sorted(j), sorted(k))
                left = ctx.add(j, x, muls[k][b][c])
                right = ctx.mul(k, adds[j][a][b], adds[j][a][c])
                if not leq_plus(left, right) or not leq_minus(left, right):
                    return "x + (y * z), J=%s K=%s" % (sorted(j), sorted(k))
    return None


@_law("distributive-full-slash", True)
def _distributive_full_slash(ctx, pool):
    n = ctx.full_j
    jsets = ctx.jsets()
    rooted = [x for x in pool if is_rooted(x)]
    adds = _table(ctx.add, jsets, rooted)
    muls = _table(ctx.mul, jsets, rooted)
    add_n, mul_n = adds[n], muls[n]
    for j in jsets:
        add, mul = adds[j], muls[j]
        for a, b, c in _triples(range(len(rooted))):
            x = rooted[a]
            if (ctx.mul(j, x, add_n[b][c]).plus
                    != ctx.add(n, mul[a][b], mul[a][c]).plus):
                return "plus of x *_J (y +_N z), J=%s" % sorted(j)
            if (ctx.mul(n, x, add[b][c]).minus
                    != ctx.add(j, mul_n[a][b], mul_n[a][c]).minus):
                return "minus of x *_N (y +_K z), K=%s" % sorted(j)
            if (ctx.add(n, x, mul[b][c]).plus
                    != ctx.mul(j, add_n[a][b], add_n[a][c]).plus):
                return "plus of x +_N (y *_K z), K=%s" % sorted(j)
            if (ctx.add(j, x, mul_n[b][c]).minus
                    != ctx.mul(n, add[a][b], add[a][c]).minus):
                return "minus of x +_J (y *_N z), J=%s" % sorted(j)
    return None


@_law("distributivity-eq", False)
def _distributivity_eq(ctx, pool):
    for j in ctx.jsets():
        for k in ctx.jsets():
            for x, y, z in _triples(pool):
                if (ctx.mul(j, x, ctx.add(k, y, z))
                        != ctx.add(k, ctx.mul(j, x, y), ctx.mul(j, x, z))):
                    return "x *_J (y +_K z), J=%s K=%s" % (sorted(j),
                                                           sorted(k))
    return None


@_law("demorgan", True)
def _demorgan(ctx, pool):
    if ctx.neg(ctx.zero) != ctx.one:
        return "~0 != 1"
    for x in pool:
        if ctx.neg(ctx.neg(x)) != x:
            return "~~x != x"
    for j in ctx.jsets():
        for x, y in _pairs(pool):
            if ctx.neg(ctx.add(j, x, y)) != ctx.mul(j, ctx.neg(x), ctx.neg(y)):
                return "~(x + y) != ~x * ~y, J=%s" % sorted(j)
            if ctx.neg(ctx.mul(j, x, y)) != ctx.add(j, ctx.neg(x), ctx.neg(y)):
                return "~(x * y) != ~x + ~y, J=%s" % sorted(j)
    return None


@_law("kleene", True)
def _kleene(ctx, pool):
    jsets = ctx.jsets()
    suits = [x for x in pool if is_double_suit(ctx, x)]
    meets = {j: [ctx.mul(j, x, ctx.neg(x)) for x in suits] for j in jsets}
    joins = {k: [ctx.add(k, y, ctx.neg(y)) for y in suits] for k in jsets}
    for j in jsets:
        for k in jsets:
            for a, b in _pairs(range(len(suits))):
                if not leq(meets[j][a], joins[k][b]):
                    return "x * ~x > y + ~y, J=%s K=%s" % (sorted(j),
                                                           sorted(k))
    return None


@_law("excluded-middle", False)
def _excluded_middle(ctx, pool):
    n = ctx.full_j
    for x in pool:
        if ctx.add(n, x, ctx.neg(x)) != ctx.one:
            return "x + ~x != 1"
    return None


@_law("complement-criterion", True)
def _complement_criterion(ctx, pool):
    n = ctx.full_j
    for x in pool:
        holds = ctx.add(n, x, ctx.neg(x)) == ctx.one
        dual_holds = ctx.mul(n, x, ctx.neg(x)) == ctx.zero
        criterion = (x.plus | x.minus == ctx.all_teamsets
                     and x.plus & x.minus == 1)
        if holds != criterion or dual_holds != criterion:
            return "excluded-middle criterion mismatch"
    return None


@_law("complement-suited", True)
def _complement_suited(ctx, pool):
    n = ctx.full_j
    for x in pool:
        if not is_double_suit(ctx, x):
            continue
        holds = ctx.add(n, x, ctx.neg(x)) == ctx.one
        if holds != (x in (ctx.zero, ctx.one)):
            return "double suit with x + ~x = 1 but x not 0 or 1"
    return None


@_law("not-complemented", True)
def _not_complemented(ctx, pool):
    n = ctx.full_j
    for x, y in _pairs(pool):
        if ctx.add(n, x, y) == ctx.one and ctx.mul(n, x, y) == ctx.zero:
            if not (x.plus | y.plus == ctx.all_teamsets
                    and x.minus | y.minus == ctx.all_teamsets
                    and x.plus & y.plus == 1 and x.minus & y.minus == 1):
                return "complement pair without exact split"
    return None


@_law("not-complemented-suited", True)
def _not_complemented_suited(ctx, pool):
    n = ctx.full_j
    for x, y in _pairs(pool):
        if not (is_double_suit(ctx, x) and is_double_suit(ctx, y)):
            continue
        holds = (ctx.add(n, x, y) == ctx.one
                 and ctx.mul(n, x, y) == ctx.zero)
        trivial = ((x, y) == (ctx.one, ctx.zero)
                   or (x, y) == (ctx.zero, ctx.one))
        if holds != trivial:
            return "complemented double suits beyond 0 and 1"
    return None


@_law("cyl-constants", True)
def _cyl_constants(ctx, pool):
    for n in range(ctx.nvars):
        for j in ctx.jsets():
            if ctx.cyl(n, j, ctx.zero) != ctx.zero:
                return "C(0) != 0"
            if ctx.cyl(n, j, ctx.one) != ctx.one:
                return "C(1) != 1"
            if ctx.dual_cyl(n, j, ctx.one) != ctx.one:
                return "dual C(1) != 1"
            if ctx.dual_cyl(n, j, ctx.zero) != ctx.zero:
                return "dual C(0) != 0"
            for c, label in ((ctx.omega, "omega"), (ctx.mho, "mho")):
                if ctx.cyl(n, j, c) != c or ctx.dual_cyl(n, j, c) != c:
                    return "C(%s) != %s" % (label, label)
            for x in pool:
                if is_double_suit(ctx, x):
                    if (ctx.cyl(n, j, x) == ctx.zero) != (x == ctx.zero):
                        return "C(x) = 0 but x != 0"
    return None


@_law("cyl-meet", True)
def _cyl_meet(ctx, pool):
    n_set = ctx.full_j
    for n in range(ctx.nvars):
        for j in ctx.jsets():
            for x in pool:
                c = ctx.cyl(n, j, x)
                if n not in j:
                    for k in ctx.jsets():
                        if ctx.mul(k, x, c).plus != x.plus:
                            return "x *_K C(x) !=+ x"
                if is_suit(ctx, x.minus):
                    if ctx.mul(n_set, x, c).minus != x.minus:
                        return "x *_N C(x) !=- x"
                if is_double_suit(ctx, x):
                    if ctx.mul(n_set, x, ctx.cyl(n, frozenset(), x)) != x:
                        return "x *_N C_empty(x) != x"
                    if n not in j:
                        if not (leq(ctx.dual_cyl(n, j, x), x)
                                and leq(x, c)):
                            return "dual C(x) <= x <= C(x) fails"
    return None


@_law("cyl-slash-antitone", True)
def _cyl_slash_antitone(ctx, pool):
    jsets = ctx.jsets()
    for n in range(ctx.nvars):
        cyls = _cyl_table(ctx.cyl, n, jsets, pool)
        duals = _cyl_table(ctx.dual_cyl, n, jsets, pool)
        for j in jsets:
            for k in jsets:
                if not j <= k:
                    continue
                for a in range(len(pool)):
                    if not leq(cyls[k][a], cyls[j][a]):
                        return "C_K(x) > C_J(x)"
                    if not leq(duals[j][a], duals[k][a]):
                        return "dual C_J(x) > dual C_K(x)"
    return None


@_law("cyl-monotone", True)
def _cyl_monotone(ctx, pool):
    below = _below(pool)
    for n in range(ctx.nvars):
        for j in ctx.jsets():
            cyl = [ctx.cyl(n, j, x) for x in pool]
            dual = [ctx.dual_cyl(n, j, x) for x in pool]
            for a, b in below:
                if not leq(cyl[a], cyl[b]):
                    return "C not monotone"
                if not leq(dual[a], dual[b]):
                    return "dual C not monotone"
    return None


@_law("cyl-product", True)
def _cyl_product(ctx, pool):
    jsets = ctx.jsets()
    suits = [is_double_suit(ctx, x) for x in pool]
    for n in range(ctx.nvars):
        cyls = _cyl_table(ctx.cyl, n, jsets, pool)
        # x *_L C_{n,K}(y) at [L, K][a][b] and C_{n,J}(x) *_L C_{n,J}(y)
        # at [J][L][a][b]
        muls = {(el, k): [[ctx.mul(el, x, cy) for cy in cyls[k]]
                          for x in pool]
                for el in jsets for k in jsets}
        outers = {j: _table(ctx.mul, jsets, cyls[j]) for j in jsets}
        for j, k, el in itertools.product(jsets, repeat=3):
            cj, ck, mul, outer_j = cyls[j], cyls[k], muls[el, k], outers[j][el]
            for a, b in _pairs(range(len(pool))):
                inner = ctx.cyl(n, j, mul[a][b])
                outer = ctx.mul(el, cj[a], ck[b])
                if j <= k and not leq_plus(inner, outer_j[a][b]):
                    return "part a fails"
                if n in k and inner.plus != outer.plus:
                    return "part b fails"
                if n in el:
                    if not leq_minus(outer, inner):
                        return "part c first fails"
                    if not leq_minus(inner, ctx.cyl(n, j, outer)):
                        return "part c second fails"
                    if is_suit(ctx, outer.minus) and inner.minus != outer.minus:
                        return "part d fails"
                if (suits[a] and suits[b] and n in k and n in el
                        and inner != outer):
                    return "double-suit case fails"
    return None


@_law("cyl-product-plus-eq", False)
def _cyl_product_plus_eq(ctx, pool):
    jsets = ctx.jsets()
    for n in range(ctx.nvars):
        for j, k, el in itertools.product(jsets, repeat=3):
            for x, y in _pairs(pool):
                cy = ctx.cyl(n, k, y)
                inner = ctx.cyl(n, j, ctx.mul(el, x, cy))
                outer = ctx.mul(el, ctx.cyl(n, j, x), cy)
                if inner.plus != outer.plus:
                    return "C(x * C(y)) !=+ C(x) * C(y)"
    return None


@_law("cyl-idempotent", True)
def _cyl_idempotent(ctx, pool):
    jsets = ctx.jsets()
    for n in range(ctx.nvars):
        cyls = _cyl_table(ctx.cyl, n, jsets, pool)
        for j in jsets:
            for k in jsets:
                for ck, cjk in zip(cyls[k], cyls[j & k]):
                    twice = ctx.cyl(n, j, ck)
                    if not leq(twice, cjk):
                        return "C_J C_K > C_{J&K}"
                    if n in k and twice != ck:
                        return "C_J C_K != C_K with n in K"
    return None


@_law("cyl-commute", True)
def _cyl_commute(ctx, pool):
    jsets = ctx.jsets()
    cyls = [_cyl_table(ctx.cyl, n, jsets, pool) for n in range(ctx.nvars)]
    for m in range(ctx.nvars):
        for n in range(ctx.nvars):
            if m == n:
                continue
            for j in jsets:
                if n not in j:
                    continue
                for k in jsets:
                    if m not in k:
                        continue
                    for cn, cm in zip(cyls[n][k], cyls[m][j]):
                        if ctx.cyl(m, j, cn) != ctx.cyl(n, k, cm):
                            return "C_m C_n != C_n C_m"
    return None


@_law("cyl-diagonal", True)
def _cyl_diagonal(ctx, pool):
    for i in range(ctx.nvars):
        for j_idx in range(ctx.nvars):
            for jset in ctx.jsets():
                if j_idx in jset:
                    continue
                if ctx.cyl(i, jset, ctx.diag(i, j_idx)) != ctx.one:
                    return "C_i(D_ij) != 1 with j not in J"
    return None


@_law("cyl-diagonal-compose", True)
def _cyl_diagonal_compose(ctx, pool):
    empty = frozenset()
    for i in range(ctx.nvars):
        for j_idx in range(ctx.nvars):
            for k in range(ctx.nvars):
                if k == i or k == j_idx:
                    continue
                for jset in ctx.jsets():
                    if i in jset and j_idx in jset:
                        continue
                    lhs = ctx.cyl(k, jset,
                                  ctx.mul(empty, ctx.diag(i, k),
                                          ctx.diag(k, j_idx)))
                    if lhs != ctx.diag(i, j_idx):
                        return "C_k(D_ik * D_kj) != D_ij"
    return None


@_law("cyl-diagonal-split", True)
def _cyl_diagonal_split(ctx, pool):
    jsets = ctx.jsets()
    for i in range(ctx.nvars):
        for j_idx in range(ctx.nvars):
            if i == j_idx:
                continue
            d = ctx.diag(i, j_idx)
            for x in pool:
                if not is_double_suit(ctx, x):
                    continue
                # C(D *_J x) and C(D *_J ~x) at [J, K]
                halves = {(j, k): (ctx.cyl(i, k, ctx.mul(j, d, x)),
                                   ctx.cyl(i, k, ctx.mul(j, d, ctx.neg(x))))
                          for j in jsets for k in jsets}
                for j, k, el in itertools.product(jsets, repeat=3):
                    a, b = halves[j, k]
                    if not leq(ctx.mul(el, a, b), ctx.omega):
                        return "C(D * x) * C(D * ~x) > omega"
    return None


@_law("cyl-chain", True)
def _cyl_chain(ctx, pool):
    if ctx.nvars == 0:
        return None
    n = ctx.nvars
    empty = [frozenset()] * n
    full = [ctx.full_j] * n
    mixed = [frozenset({i}) for i in range(n)]
    singletons = 0
    for x in pool:
        if not is_rooted(x):
            continue
        chain_empty = ctx.cyl_chain(x, empty)
        if (chain_empty.plus == 1) != (x.plus == 1):
            return "empty-slash chain plus"
        chain_full = ctx.cyl_chain(x, full)
        has_singleton = any(t.bit_count() == 1 for t in bits(x.plus))
        want = ctx.all_teamsets if has_singleton else 1
        if chain_full.plus != want:
            return "full-slash chain plus"
        for chain in (chain_empty, chain_full, ctx.cyl_chain(x, mixed)):
            full_in = bool(x.minus >> ctx.space.full_team & 1)
            want = ctx.all_teamsets if full_in else 1
            if chain.minus != want:
                return "chain minus"
    return None


@_law("omega-definable", True)
def _omega_definable(ctx, pool):
    if ctx.nvars == 0:
        return None
    n_set = ctx.full_j
    full = [n_set] * ctx.nvars
    for x in pool:
        if not is_double_suit(ctx, x) or x in (ctx.zero, ctx.one):
            continue
        if ctx.cyl_chain(ctx.mul(n_set, x, ctx.neg(x)), full) != ctx.omega:
            return "chain of x *_N ~x is not omega"
    return None
