"""Classical lattice laws that break for slashed team operations.

The operations +_J and *_J behave like join and meet only up to
inclusion once the slash set J is nonempty: associativity, absorption,
and distributivity all fail as equations.  This script shows a concrete
failure of each, then runs the whole law registry to display which laws
hold and which are expected to fail.
"""

from ifg import syntax, algebra, trump
from ifg.algebra import AlgebraContext
from ifg.model import Structure

ctx = AlgebraContext(2, 2)
n_set = ctx.full_j
empty = frozenset()
d01 = ctx.diag(0, 1)


def show(label, element):
    print("%s = %s" % (label, ctx.render(element)))


print("-- absorption fails --")
x = ctx.add(n_set, d01, ctx.neg(d01))
show("X = D01 +_N ~D01", x)
grown = ctx.add(empty, x, ctx.add(n_set, x, x))
full_bit = 1 << ctx.space.full_team
print("full team in (X +_{} (X +_N X))+:", bool(grown.plus & full_bit))
print("full team in X+:", bool(x.plus & full_bit))

print()
print("-- distributivity fails --")
const2 = trump.Evaluator(Structure(2, constants={"c0": 0, "c1": 1}), 2)
xc = ctx.add(n_set, const2.element(syntax.parse("v0=c0", 2)),
             const2.element(syntax.parse("v0=c1", 2)))
k = frozenset({1})
left = ctx.mul(k, xc, ctx.add(k, ctx.one, ctx.one))
right = ctx.add(k, xc, xc)
print("X *_{1} (1 +_{1} 1) == X:", left == xc)
print("full team in (X +_{1} X)+:", bool(right.plus & full_bit))

print()
print("-- the law registry --")
pool = [ctx.zero, ctx.one, ctx.omega, ctx.mho, d01, ctx.neg(d01), x, xc]
for name, expected, holds, detail in algebra.run_laws(ctx, pool):
    status = "holds" if holds else "fails (%s)" % detail
    note = "" if holds == expected else "  ** unexpected"
    print("%-28s %s%s" % (name, status, note))
