"""Extensive-form semantic games: strategies, winning-strategy search.

A position is (subformula position, valuation index, verifier bit); the
subformula positions are numbered by `syntax.children`.  A strategy for a
player maps information sets to moves, where an information set is a
disjunction/quantifier position together with an equivalence class of
valuations agreeing outside that node's slash set; keying moves by class
makes uniformity structural.

The rules of the game are stated once, in `GameAnalyzer._moves`: the
successors of a position, all of them or only a given strategy's move where
its owner moves.  `play_out` follows it with both players' strategies,
`verify_strategy` (the check on every claimed winning strategy) requires
every successor play to be won, and `reachable_positions` walks it with no
strategy.

The search computes, per (subformula node, flag "the searched player is the
verifier here", reach R), the antichain of maximal sets W inside R such
that one fixed uniform strategy on that subtree wins from every start in W.
R holds the valuations at which plays from the asked team can be at the
node: the team at the root, passed on unchanged by ~ and \\/, and by E v_n
as the union of the n-lines it meets.  Uniformity binds only positions that
plays visit, so the clauses look only at the ~J classes that meet R, each
cut down to R.  The team then has a winning strategy iff it is itself an
entry of the root antichain.  Each entry records how it was composed from
child entries, which yields a concrete witness strategy on the classes
plays meet.  On the full team every reach is the full team: a sentence is
true (false) when player 1 (0) wins from it, and `truth_value` answers so
at every valuation count, within SEARCH_GUARD.  The search answers `ifg
truth`, `game` and `eval`, and before it builds any mask it refuses a ~J
class table too large for `Space.check_classes`.

The E clauses read a child entry's variations through `Space.preimages`,
the whole-mask primitive the `downsets` kernels use too.  The module
imports neither those kernels nor `algebra` or `trump`, so the tests that
compare the search with the fold compare two independent computations;
the tests also check its verdicts from single teams against the per-team
recursion.
"""

from itertools import product
from math import prod

from .errors import IfgError, GuardExceeded
from . import syntax
from .model import Space, atom_mask, eval_atomic, bits

SEARCH_GUARD = 1 << 24


class Strategy:
    """A uniform strategy: moves indexed by (position, valuation class)."""

    def __init__(self, owner):
        self.owner = owner
        self.moves = {}   # (pos, class id under the node's slash set) -> move
        self.table = []   # (pos, class repr string, move string)

    def add(self, space, pos, jset, cid, move):
        self.moves[(pos, cid)] = move
        masks, _ = space.classes(jset)
        rep = bits(masks[cid])[0] if masks[cid] else 0
        self.table.append((pos, space.class_repr(rep, jset), str(move)))

    def move_at(self, pos, cid):
        key = (pos, cid)
        if key not in self.moves:
            raise IfgError("strategy undefined at position %s" % pos_str(pos))
        return self.moves[key]

    def render(self):
        rows = sorted((pos_str(pos), rep, move) for pos, rep, move in self.table)
        return "\n".join("pos=%s class=%s -> %s" % row for row in rows)


def pos_str(pos):
    return "".join(str(d) for d in pos) if pos else "-"


class GameAnalyzer:
    """Uniform-strategy search over one structure with fixed variable count."""

    def __init__(self, structure, nvars):
        self.structure = structure
        self.nvars = nvars
        self.space = Space(structure.size, nvars)
        self._atoms = {}   # atom node uid -> the valuations where it holds
        self._ant = {}     # (node uid, myturn, reach) -> antichain

    # -- antichains of maximal winning valuation sets -------------------------

    def antichain(self, node, myturn, reach):
        """The maximal sets W inside reach from which one uniform strategy
        on node's subtree wins, each with its provenance."""
        key = (node.uid, myturn, reach)
        hit = self._ant.get(key)
        if hit is not None:
            return hit
        result = self._antichain(node, myturn, reach)
        self._ant[key] = result
        return result

    def _antichain(self, node, myturn, reach):
        if isinstance(node, syntax.Atomic):
            mask = self._atoms.get(node.uid)
            if mask is None:
                mask = self._atoms[node.uid] = atom_mask(
                    self.structure, self.space, node.atom)
            return [(reach & mask if myturn else reach & ~mask, ())]
        below = self._below(node, reach)
        if isinstance(node, syntax.Not):
            child = self.antichain(node.child, not myturn, below)
            return [(w, (ci,)) for ci, (w, _) in enumerate(child)]
        elif isinstance(node, syntax.Or):
            wl = [w for w, _ in self.antichain(node.left, myturn, below)]
            wr = [w for w, _ in self.antichain(node.right, myturn, below)]
            if myturn:
                return self._or_verifier(node.jset, reach, wl, wr)
            return self._or_opponent(wl, wr)
        elif isinstance(node, syntax.Exists):
            wc = [w for w, _ in self.antichain(node.child, myturn, below)]
            if myturn:
                return self._exists_verifier(node.n, node.jset, reach, wc)
            return self._exists_opponent(node.n, reach, wc)
        else:
            raise IfgError("not a formula node: %r" % (node,))

    def _below(self, node, reach):
        """The reach of node's children, given node's reach.  The full team
        holds every variation of its valuations, so it is its own."""
        if isinstance(node, syntax.Exists) and reach != self.space.full_team:
            return self.space.variant_team_all(reach, node.n)
        return reach

    def _met(self, jset, reach):
        """The ~J classes that meet reach: their ids and their parts in it.
        The full team meets every class and holds it whole."""
        masks, _ = self.space.classes(jset)
        if reach == self.space.full_team:
            return range(len(masks)), masks
        ids = [cid for cid, cls in enumerate(masks) if cls & reach]
        return ids, [masks[cid] & reach for cid in ids]

    def _or_verifier(self, jset, reach, wl, wr):
        _, parts = self._met(jset, reach)
        groups = []
        for li, l in enumerate(wl):
            for ri, r in enumerate(wr):
                per_class = []
                for cls in parts:
                    a, b = cls & l, cls & r
                    if b & ~a == 0:
                        per_class.append(((a, "left"),))
                    elif a & ~b == 0:
                        per_class.append(((b, "right"),))
                    else:
                        per_class.append(((a, "left"), (b, "right")))
                groups.append([(w, (li, ri, moves)) for w, moves in
                               _uniform_picks(per_class, len(wl) * len(wr))])
        return _maximal(groups)

    def _or_opponent(self, wl, wr):
        return _maximal([[(l & r, (li, ri))] for li, l in enumerate(wl)
                         for ri, r in enumerate(wr)])

    def _exists_verifier(self, n, jset, reach, wc):
        _, parts = self._met(jset, reach)
        groups = []
        for ci, target in enumerate(wc):
            pres = self.space.preimages(target, n)
            per_class = []
            for cls in parts:
                options = {}
                for b, pre in enumerate(pres):
                    options.setdefault(pre & cls, b)
                # options of one class may contain each other: reduce
                per_class.append(_maximal([[o] for o in options.items()]))
            groups.append([(w, (ci, values)) for w, values in
                           _uniform_picks(per_class, len(wc))])
        return _maximal(groups)

    def _exists_opponent(self, n, reach, wc):
        groups = []
        for ci, target in enumerate(wc):
            w = reach
            for pre in self.space.preimages(target, n):
                w &= pre
            groups.append([(w, (ci,))])
        return _maximal(groups)

    def _root(self, formula, myturn):
        """The checked root of formula, once `Space.check_classes` passes
        the slash sets whose class tables the search will build."""
        root = syntax.checked_root(formula, self.nvars)
        self.space.check_classes(_slash_sets(root, myturn, set()))
        return root

    # -- winning strategies ----------------------------------------------------

    def truth_value(self, formula):
        """true, false or undetermined: which player wins from the full team."""
        node = syntax.checked_root(formula, self.nvars)
        if node.freevars:
            raise IfgError("formula is not a sentence: %s"
                           % syntax.render(node))
        for player, verdict in ((1, "true"), (0, "false")):
            if self.wins(node, self.space.full_team, player):
                return verdict
        return "undetermined"

    def winning_mask(self, formula, player):
        """Bitmask over all teams V from which the player wins (count small)."""
        full = self.space.full_team
        node = self._root(formula, player == 1)
        mask = 1
        for w, _ in self.antichain(node, player == 1, full):
            mask |= self.space.powerset_mask(w)
        return mask

    def wins(self, formula, team, player):
        """True iff the player has a uniform winning strategy from team."""
        return self._winning_entry(formula, team, player) is not None

    def has_winning_strategy(self, formula, team, player):
        """(bool, witness Strategy or None) for the given player and team."""
        found = self._winning_entry(formula, team, player)
        if found is None:
            return False, None
        strategy = Strategy(player)
        node, ant, idx = found
        self._extract(node, (), player == 1, team, ant, idx, strategy)
        return True, strategy

    def _winning_entry(self, formula, team, player):
        """(root, root antichain, index of its entry team) or None.

        Every entry lies inside the root's reach, the team, so the player
        wins from the team exactly when it is an entry itself.
        """
        node = self._root(formula, player == 1)
        ant = self.antichain(node, player == 1, team)
        for idx, (w, _) in enumerate(ant):
            if w == team:
                return node, ant, idx
        return None

    def _extract(self, node, pos, myturn, reach, ant, idx, strategy):
        """Add the moves of entry idx of ant and of the entries it was
        composed from; its provenance lists one child entry per child, then
        at the searched player's \\/ or E the move on each ~J class that
        meets reach."""
        picks = ant[idx][1]
        if isinstance(node, syntax.Not):
            myturn = not myturn
        elif myturn and not isinstance(node, syntax.Atomic):
            *picks, moves = picks
            ids, _ = self._met(node.jset, reach)
            for cid, move in zip(ids, moves):
                strategy.add(self.space, pos, node.jset, cid, move)
        below = self._below(node, reach)
        for (step, child), ci in zip(syntax.children(node), picks):
            self._extract(child, pos + (step,), myturn, below,
                          self.antichain(child, myturn, below), ci, strategy)

    # -- plays -------------------------------------------------------------------

    def _moves(self, node, pos, val, eps, strategy=None):
        """The successors (node, pos, val, eps) of a game position.

        eps is the verifier bit: player eps verifies here.  Where the
        strategy's owner moves, at a \\/ or E, the successor is the
        strategy's move; everywhere else every move is a successor.  An
        atom has none.
        """
        kids = syntax.children(node)
        if isinstance(node, syntax.Not):
            return [(child, pos + (step,), val, 1 - eps) for step, child in kids]
        if isinstance(node, syntax.Atomic):
            return []
        move = None
        if strategy is not None and strategy.owner == eps:
            _, class_of = self.space.classes(node.jset)
            move = strategy.move_at(pos, class_of[val])
        if isinstance(node, syntax.Or):
            if move is not None:
                kids = [kids[0] if move == "left" else kids[1]]
            return [(child, pos + (step,), val, eps) for step, child in kids]
        values = range(self.space.size) if move is None else (move,)
        return [(child, pos + (step,),
                 self.space.variant_index(val, node.n, b), eps)
                for step, child in kids for b in values]

    def _winner(self, node, val, eps):
        """The winner at an atom: the verifier eps iff the atom holds."""
        truth = eval_atomic(self.structure, node.atom, self.space.decode(val))
        return eps if truth else 1 - eps

    def play_out(self, formula, strategies, start):
        """Play both strategies from a start valuation; return (play, winner).

        strategies maps player number to that player's Strategy; a player
        without an entry must never be asked to move.
        """
        here = (syntax.checked_root(formula, self.nvars), (), start, 1)
        play = [here[1:]]
        while not isinstance(here[0], syntax.Atomic):
            node, _, _, eps = here
            strategy = None
            if not isinstance(node, syntax.Not):
                strategy = strategies.get(eps)
                if strategy is None or strategy.owner != eps:
                    raise IfgError("no strategy for player %d" % eps)
            (here,) = self._moves(*here, strategy)
            play.append(here[1:])
        node, _, val, eps = here
        return play, self._winner(node, val, eps)

    def verify_strategy(self, formula, team, strategy):
        """True iff the strategy wins every play from every start in team."""
        node = syntax.checked_root(formula, self.nvars)

        def wins(node, pos, val, eps):
            if isinstance(node, syntax.Atomic):
                return self._winner(node, val, eps) == strategy.owner
            return all(wins(*succ)
                       for succ in self._moves(node, pos, val, eps, strategy))

        return all(wins(node, (), val, 1) for val in bits(team))

    def reachable_positions(self, formula, team):
        """All positions occurring in some play of the game from team."""
        node = syntax.checked_root(formula, self.nvars)
        seen = set()

        def walk(node, pos, val, eps):
            if (pos, val, eps) not in seen:
                seen.add((pos, val, eps))
                for succ in self._moves(node, pos, val, eps):
                    walk(*succ)

        for val in bits(team):
            walk(node, (), val, 1)
        return seen


def _slash_sets(node, myturn, seen):
    """The slash sets of the \\/ and E nodes where the searched player
    moves, in the order the search builds their ~J class tables."""
    if (node.uid, myturn) not in seen:
        seen.add((node.uid, myturn))
        turn = not myturn if isinstance(node, syntax.Not) else myturn
        for _, child in syntax.children(node):
            yield from _slash_sets(child, turn, seen)
        if myturn and isinstance(node, (syntax.Or, syntax.Exists)):
            yield node.jset


def _maximal(groups):
    """Antichain of the maximal keys of groups of (key, provenance) pairs.

    A key keeps the provenance of its first occurrence.  Each group must be
    an antichain itself.  The uniform picks of one target, or of one pair
    of child entries, are one: two picks differ in the part of some ~J
    class, the classes are disjoint, and the options of each class form an
    antichain.  So a single group is only sorted, and the subset tests run
    only across groups.

    The subset tests read an inverted index: per valuation, the bitset of
    the kept keys (by their place in the output) that hold it.  A key is
    inside a kept one exactly when the AND of its valuations' bitsets is
    not 0, and the AND stops as soon as it is.
    """
    candidates = {}
    for group in groups:
        for w, prov in group:
            candidates.setdefault(w, prov)
    order = sorted(candidates, key=lambda x: (-x.bit_count(), x))
    if len(groups) == 1:
        return [(w, candidates[w]) for w in order]
    out = []
    holders = {}   # valuation -> bitset of the kept keys that hold it
    for w in order:
        vals = bits(w)
        inside = (1 << len(out)) - 1
        for v in vals:
            inside &= holders.get(v, 0)
            if not inside:
                break
        if not inside:
            bit = 1 << len(out)
            for v in vals:
                holders[v] = holders.get(v, 0) | bit
            out.append((w, candidates[w]))
    return out


def _uniform_picks(per_class, ngroups):
    """(team, moves) for each pick of one (part, move) option per ~J class.

    The search space is ngroups times the number of picks; SEARCH_GUARD
    bounds it.
    """
    if ngroups * prod(map(len, per_class)) > SEARCH_GUARD:
        raise GuardExceeded("strategy search space too large")
    parts = [[part for part, _ in options] for options in per_class]
    moves = [[move for _, move in options] for options in per_class]
    # the classes are disjoint, so the sum of the parts is their union
    for picked, chosen in zip(product(*parts), product(*moves)):
        yield sum(picked), chosen


def dualize(strategy):
    """The dual strategy: same moves, one negation deeper, other owner."""
    dual = Strategy(1 - strategy.owner)
    dual.moves = {((0,) + pos, cid): move
                  for (pos, cid), move in strategy.moves.items()}
    dual.table = [((0,) + pos, rep, move) for pos, rep, move in strategy.table]
    return dual


def has_winning_strategy(structure, formula, team, player):
    """One-shot winning-strategy search."""
    return GameAnalyzer(structure, formula.nvars).has_winning_strategy(
        formula, team, player)
