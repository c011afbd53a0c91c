"""The per-team recursion: team satisfaction straight from its clauses.

A team V satisfies a formula positively when the verifier can win from every
valuation in V using one uniform strategy, and negatively when the falsifier
can.  `TeamSemantics` states the five clause pairs directly, team by team:
\\/_J tries every split of V along its ~J classes, and E v_n/J every
function V ->_J A.  It looks only at the team it is given and bounds no
work, so the package answers with the game search and the fold instead,
and the tests check both against this definition.
"""

from itertools import compress, product

from ifg import syntax
from ifg.errors import IfgError
from ifg.model import Space, atom_mask, bits


class OracleSpace(Space):
    """A valuation space with the primitives of the per-team clauses."""

    def agree_outside(self, i, j, jset):
        a, b = self.decode(i), self.decode(j)
        return all(a[k] == b[k] for k in range(self.nvars) if k not in jset)

    def team_classes(self, team, jset):
        """Nonempty intersections of team with the ~J classes, grouped by
        the digits outside J, in order of their lowest valuation."""
        groups = {}
        for i in bits(team):
            val = self.decode(i)
            key = tuple(val[k] for k in range(self.nvars) if k not in jset)
            groups[key] = groups.get(key, 0) | 1 << i
        return list(groups.values())

    def saturated_splits(self, team, jset):
        """All ordered pairs (V1, V2) with V = V1 union_J V2.

        Yields 2**(number of touched classes) pairs; parts may be empty.
        """
        blocks = self.team_classes(team, jset)
        for keep in product((1, 0), repeat=len(blocks)):
            v1 = sum(compress(blocks, keep[::-1]))
            yield v1, team ^ v1

    def independent_functions(self, team, jset):
        """All functions V ->_J A as (blocks, values) pairs.

        blocks are the ~J classes of V in canonical order; values is a tuple
        assigning one universe element per block.  The empty team yields the
        single empty function.
        """
        blocks = self.team_classes(team, jset)
        for values in product(range(self.size), repeat=len(blocks)):
            yield blocks, values[::-1]

    def variant_team_fn(self, n, blocks, values):
        out = 0
        for block, b in zip(blocks, values):
            out |= self.variant_team(block, n, b)
        return out


class TeamSemantics:
    """Team satisfaction over one structure with a fixed variable count."""

    def __init__(self, structure, nvars):
        self.structure = structure
        self.nvars = nvars
        self.space = OracleSpace(structure.size, nvars)
        self._atom_masks = {}    # atom -> team
        self._memo = {}          # (node uid, team, sign) -> satisfied

    def satisfies(self, formula, team, positive):
        return self._satisfies(syntax.checked_root(formula, self.nvars),
                               team, positive)

    def _satisfies(self, node, team, positive):
        key = (node.uid, team, positive)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        space = self.space
        if isinstance(node, syntax.Atomic):
            mask = self._atom_masks.get(node.atom)
            if mask is None:
                mask = atom_mask(self.structure, space, node.atom)
                self._atom_masks[node.atom] = mask
            result = team & (~mask if positive else mask) == 0
        elif isinstance(node, syntax.Not):
            result = self._satisfies(node.child, team, not positive)
        elif isinstance(node, syntax.Or):
            if positive:
                splits = space.saturated_splits(team, node.jset)
                result = any(self._satisfies(node.left, v1, True)
                             and self._satisfies(node.right, v2, True)
                             for v1, v2 in splits)
            else:
                result = (self._satisfies(node.left, team, False)
                          and self._satisfies(node.right, team, False))
        elif isinstance(node, syntax.Exists):
            if positive:
                functions = space.independent_functions(team, node.jset)
                result = any(self._satisfies(
                    node.child, space.variant_team_fn(node.n, *fn), True)
                    for fn in functions)
            else:
                result = self._satisfies(
                    node.child, space.variant_team_all(team, node.n), False)
        else:
            raise IfgError("not a formula node: %r" % (node,))
        self._memo[key] = result
        return result
