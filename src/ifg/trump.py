"""Team satisfaction: the compositional counterpart of the semantic games.

A team V satisfies a formula positively when the verifier can win from every
valuation in V using one uniform strategy, and negatively when the falsifier
can.  The evaluator implements the five clause pairs directly, as the
definitional oracle, plus a bulk winning-teams computation that runs the
whole-mask kernels of `downsets` on the downward-closed sets of winning
teams.
"""

from .errors import IfgError, GuardExceeded
from . import syntax
from .model import Space, eval_atomic, powerset
from .downsets import Downsets

MEANING_GUARD = 20


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
        self._atom_masks = {}
        self._memo = {}
        self._bulk = {}
        self.downsets = Downsets(self.space)

    def atom_mask(self, atom):
        mask = self._atom_masks.get(atom)
        if mask is None:
            mask = 0
            for i in range(self.space.count):
                if eval_atomic(self.structure, atom, self.space.decode(i)):
                    mask |= 1 << i
            self._atom_masks[atom] = mask
        return mask

    # -- per-team satisfaction (definitional recursion) ----------------------

    def satisfies(self, node, team, positive):
        if isinstance(node, syntax.Formula):
            if node.nvars != self.nvars:
                raise IfgError("formula has %d variables, evaluator has %d"
                               % (node.nvars, self.nvars))
            node = node.root
        key = (node.uid, team, positive)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        result = self._satisfies(node, team, positive)
        self._memo[key] = result
        return result

    def _satisfies(self, node, team, positive):
        space = self.space
        if isinstance(node, syntax.Atomic):
            mask = self.atom_mask(node.atom)
            if positive:
                return team & ~mask == 0
            return team & mask == 0
        elif isinstance(node, syntax.Not):
            return self.satisfies(node.child, team, not positive)
        elif isinstance(node, syntax.Or):
            if positive:
                for v1, v2 in space.saturated_splits(team, node.jset):
                    if (self.satisfies(node.left, v1, True)
                            and self.satisfies(node.right, v2, True)):
                        return True
                return False
            return (self.satisfies(node.left, team, False)
                    and self.satisfies(node.right, team, False))
        elif isinstance(node, syntax.Exists):
            if positive:
                for blocks, values in space.independent_functions(team, node.jset):
                    variant = space.variant_team_fn(node.n, blocks, values)
                    if self.satisfies(node.child, variant, True):
                        return True
                return False
            return self.satisfies(node.child,
                                  space.variant_team_all(team, node.n), False)
        else:
            raise IfgError("not a formula node: %r" % (node,))

    # -- bulk winning-team computation ---------------------------------------

    def winning_mask(self, node, positive):
        """Bitmask over all teams: bit V set iff the team satisfies node."""
        if isinstance(node, syntax.Formula):
            node = node.root
        key = (node.uid, positive)
        hit = self._bulk.get(key)
        if hit is not None:
            return hit
        space = self.space
        if space.count > MEANING_GUARD:
            raise GuardExceeded("team enumeration needs %d valuations "
                                "(limit %d)" % (space.count, MEANING_GUARD))
        if isinstance(node, syntax.Atomic):
            amask = self.atom_mask(node.atom)
            if positive:
                mask = powerset(amask)
            else:
                mask = powerset(space.full_team & ~amask)
        elif isinstance(node, syntax.Not):
            mask = self.winning_mask(node.child, not positive)
        elif isinstance(node, syntax.Or):
            wl = self.winning_mask(node.left, positive)
            wr = self.winning_mask(node.right, positive)
            if positive:
                mask = self.downsets.or_plus(node.jset, wl, wr)
            else:
                mask = wl & wr
        elif isinstance(node, syntax.Exists):
            wc = self.winning_mask(node.child, positive)
            if positive:
                mask = self.downsets.exists_plus(node.n, node.jset, wc)
            else:
                mask = self.downsets.exists_minus(node.n, wc)
        else:
            raise IfgError("not a formula node: %r" % (node,))
        self._bulk[key] = mask
        return mask

    # -- meanings and truth values -------------------------------------------

    def meaning(self, formula):
        node = formula.root if isinstance(formula, syntax.Formula) else formula
        result = Meaning(self.space, self.winning_mask(node, True),
                         self.winning_mask(node, False))
        if not result.check():
            raise IfgError("meaning of %s breaks the empty-team and "
                           "disjointness invariants" % syntax.render(node))
        return result

    def truth_value(self, formula):
        """true, false or undetermined: which sign the full team satisfies.

        Up to MEANING_GUARD valuations this reads the full-team bit of the
        winning masks; above it, only the per-team recursion fits.
        """
        if not formula.is_sentence():
            raise IfgError("formula is not a sentence: %s" % formula)
        full = self.space.full_team
        for positive, verdict in ((True, "true"), (False, "false")):
            if self.space.count <= MEANING_GUARD:
                holds = self.winning_mask(formula.root, positive) >> full & 1
            else:
                holds = self.satisfies(formula.root, full, positive)
            if holds:
                return verdict
        return "undetermined"


def satisfies(structure, formula, team, positive):
    """One-shot satisfaction check."""
    return Evaluator(structure, formula.nvars).satisfies(formula, team, positive)


def meaning(structure, formula):
    """One-shot meaning computation."""
    return Evaluator(structure, formula.nvars).meaning(formula)


def truth_value(structure, formula):
    """One-shot three-valued truth of a sentence."""
    return Evaluator(structure, formula.nvars).truth_value(formula)
