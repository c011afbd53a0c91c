"""Extensive-form semantic games: strategies, winning-strategy search.

A position is (subformula position, valuation index, verifier bit); the
subformula positions are numbered by `syntax.children`.  A strategy for a
player maps information sets to moves, where an information set is a
disjunction/quantifier position together with an equivalence class of
valuations agreeing outside that node's slash set.  A class is named by
its lowest valuation, the one with its J digits 0; keying moves by class
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
as the union of the n-lines it meets.  \\/_J and E v_n/J are one kind of
node: per pick of one entry from each child antichain, the options are
(valuations, move) pairs, the two entries of \\/ or the preimages of an
entry under each value of v_n.  The searched player picks one option per
~J class (`_verifier`), the other must win every option (`_opponent`).
Uniformity binds only positions that plays visit, so `_verifier` cuts
only the ~J classes that meet R (`Space.parts`).  The team then has a
winning strategy iff it is itself an entry of the root antichain.  Each
entry records how it was composed from child entries, which yields a
concrete witness strategy on the classes plays meet.  On the full team
every reach is the full team: a sentence is true (false) when player 1
(0) wins from it, and `truth_value` answers so at every valuation count,
within SEARCH_GUARD.  The search answers `ifg truth`, `game` and `eval`,
and before it builds any mask it refuses, through `Space.check_classes`,
too many ~J classes met where the searched player moves.

The E options read a child entry's variations through `Space.preimages`,
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
from .model import (CLASS_TABLE_LIMIT, MEANING_GUARD, Space, atom_mask,
                    eval_atomic, bits)

SEARCH_GUARD = 1 << 24


class Strategy:
    """A uniform strategy: moves indexed by (position, valuation class)."""

    def __init__(self, owner):
        self.owner = owner
        self.moves = {}   # (pos, lowest valuation of the ~J class) -> move
        self.table = []   # (pos, class repr string, move string)

    def add(self, space, pos, jset, rep, move):
        self.moves[(pos, rep)] = move
        self.table.append((pos, space.class_repr(rep, jset), str(move)))

    def move_at(self, pos, rep):
        key = (pos, rep)
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
        kids = [self.antichain(child, myturn, below)
                for _, child in syntax.children(node)]

        def combos():   # (child entry indices, the (valuations, move) options)
            for picks in product(*map(range, map(len, kids))):
                ws = [kid[ci][0] for kid, ci in zip(kids, picks)]
                if isinstance(node, syntax.Or):
                    yield picks, [(ws[0], "left"), (ws[1], "right")]
                else:
                    yield picks, list(zip(self.space.preimages(ws[0], node.n),
                                          range(self.space.size)))
        if myturn:
            return self._verifier(node.jset, reach, combos(),
                                  prod(map(len, kids)))
        return self._opponent(reach, combos())

    def _below(self, node, reach):
        """The reach of node's children, given node's reach."""
        if isinstance(node, syntax.Exists):
            return self.space.variant_team_all(reach, node.n)
        return reach

    def _verifier(self, jset, reach, combos, ngroups):
        """Per ~J class that meets reach, the searched player picks an option
        no other there contains; `_uniform_picks` guards all ngroups combos."""
        parts = self.space.parts(jset, reach)
        groups = []
        for picks, options in combos:
            per_class = []
            for cls in parts:
                kept = []
                for w, move in options:
                    a = w & cls
                    for b, _ in kept:
                        if a & ~b == 0:
                            break
                    else:
                        if kept:   # drop the kept options inside a
                            kept = [(b, m) for b, m in kept if b & ~a]
                        kept.append((a, move))
                per_class.append(kept)
            groups.append([(w, picks + (moves,)) for w, moves in
                           _uniform_picks(per_class, ngroups)])
        return _maximal(groups)

    def _opponent(self, reach, combos):
        """The other player moves: every option must be won."""
        groups = []
        for picks, options in combos:
            w = reach
            for s, _ in options:
                w &= s
            groups.append([(w, picks)])
        return _maximal(groups)

    def _root(self, formula, myturn, reach):
        """The checked root of formula, once `Space.check_classes` passes
        the ~J classes met where the searched player moves, in the order
        the search meets them.  A reach meets at most count classes, so
        while count**2 bits fit, nothing is walked."""
        root = syntax.checked_root(formula, self.nvars)
        seen = set()

        def check(node, myturn, reach):
            if (node.uid, myturn, reach) not in seen:
                seen.add((node.uid, myturn, reach))
                turn = not myturn if isinstance(node, syntax.Not) else myturn
                below = self._below(node, reach)
                for _, child in syntax.children(node):
                    check(child, turn, below)
                if myturn and isinstance(node, (syntax.Or, syntax.Exists)):
                    self.space.check_classes(
                        node.jset, self.space.lowest(reach, node.jset))

        if self.space.count ** 2 > CLASS_TABLE_LIMIT:
            check(root, myturn, reach)
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
        if self.space.count > MEANING_GUARD:
            raise GuardExceeded("team enumeration needs %d valuations (limit "
                                "%d)" % (self.space.count, MEANING_GUARD))
        node = self._root(formula, player == 1, full)
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
        node = self._root(formula, player == 1, team)
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
            reps = bits(self.space.lowest(reach, node.jset))
            for rep, move in zip(reps, moves):
                strategy.add(self.space, pos, node.jset, rep, move)
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
            rep = self.space.lowest(1 << val, node.jset).bit_length() - 1
            move = strategy.move_at(pos, rep)
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
    dual.moves = {((0,) + pos, rep): move
                  for (pos, rep), move in strategy.moves.items()}
    dual.table = [((0,) + pos, rep, move) for pos, rep, move in strategy.table]
    return dual


def has_winning_strategy(structure, formula, team, player):
    """One-shot winning-strategy search."""
    return GameAnalyzer(structure, formula.nvars).has_winning_strategy(
        formula, team, player)
