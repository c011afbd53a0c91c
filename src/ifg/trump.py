"""Team semantics over every team at once: a formula's meaning.

A team V satisfies a formula positively when the verifier can win from every
valuation in V using one uniform strategy, and negatively when the falsifier
can.  A formula's meaning, its pair of winning- and losing-team sets, is the
fold of the formula into `AlgebraContext`: an atom denotes a flat element,
and ~, \\/_J and E v_n/J denote neg, add and cyl, the meaning homomorphism of
the cylindric set algebra.  It answers `ifg meaning`.  Questions about one
team, and the truth of a sentence, are answered by the game search
(`games.GameAnalyzer`).
"""

from .errors import IfgError
from . import syntax
from .algebra import AlgebraContext
from .model import Space, atom_mask


class Meaning:
    """The pair (winning teams, losing teams) of a formula, as bitmasks."""

    def __init__(self, space, plus, minus):
        self.space = space
        self.plus = plus
        self.minus = minus

    def __eq__(self, other):
        return (isinstance(other, Meaning) and self.plus == other.plus
                and self.minus == other.minus)

    def __hash__(self):
        return hash((self.plus, self.minus))

    def render(self):
        lines = ["plus:"]
        lines += self.space.render_teams(self.plus)
        lines.append("minus:")
        lines += self.space.render_teams(self.minus)
        return "\n".join(lines)

    def check(self):
        """Empty team in both parts; both parts intersect only in it."""
        return (self.plus & 1 and self.minus & 1
                and self.plus & self.minus == 1)


class Evaluator:
    """Evaluates formulas over one structure with a fixed variable count."""

    def __init__(self, structure, nvars):
        self.structure = structure
        self.nvars = nvars
        self.space = Space(structure.size, nvars)
        self._ctx = None         # AlgebraContext, built by the first fold
        self._elements = {}      # node uid -> Element

    # -- meanings: the fold into the algebra ---------------------------------

    def element(self, formula):
        """The meaning of a formula as an element of the set algebra."""
        node = syntax.checked_root(formula, self.nvars)
        if self._ctx is None:
            self._ctx = AlgebraContext(self.structure.size, self.nvars)
        return self._element(node)

    def _element(self, node):
        hit = self._elements.get(node.uid)
        if hit is not None:
            return hit
        ctx = self._ctx
        if isinstance(node, syntax.Atomic):
            result = ctx.flat(atom_mask(self.structure, ctx.space, node.atom))
        elif isinstance(node, syntax.Not):
            result = ctx.neg(self._element(node.child))
        elif isinstance(node, syntax.Or):
            result = ctx.add(node.jset, self._element(node.left),
                             self._element(node.right))
        elif isinstance(node, syntax.Exists):
            result = ctx.cyl(node.n, node.jset, self._element(node.child))
        else:
            raise IfgError("not a formula node: %r" % (node,))
        self._elements[node.uid] = result
        return result

    def winning_mask(self, formula, positive):
        """Bitmask over all teams: bit V set iff the team satisfies formula."""
        x = self.element(formula)
        return x.plus if positive else x.minus

    def meaning(self, formula):
        node = syntax.checked_root(formula, self.nvars)
        result = Meaning(self.space, self.winning_mask(node, True),
                         self.winning_mask(node, False))
        if not result.check():
            raise IfgError("meaning of %s breaks the empty-team and "
                           "disjointness invariants" % syntax.render(node))
        return result


def meaning(structure, formula):
    """One-shot meaning computation."""
    return Evaluator(structure, formula.nvars).meaning(formula)

