"""Extensive-form semantic games: strategies, winning-strategy search.

A position is (subformula position, valuation index, verifier bit).  A
strategy for a player maps information sets to moves, where an information
set is a disjunction/quantifier position together with an equivalence class
of valuations agreeing outside that node's slash set; keying moves by class
makes uniformity structural.

The search computes, per (subformula node, flag "the searched player is the
verifier here"), the antichain of maximal sets W of valuations such that one
fixed uniform strategy on that subtree wins from every start in W.  A team V
then has a winning strategy iff V is empty or V is contained in some W of
the root antichain.  Each antichain entry records how it was composed from
child entries, which yields a concrete witness strategy.  A sentence is
true (false) when the root antichain of player 1 (0) holds the full team;
`truth_value` answers so at every valuation count, within SEARCH_GUARD.

The E clauses read a child entry's variations through `Space.preimages`,
the whole-mask primitive the `downsets` kernels use too.  The module
imports neither those kernels nor `algebra` or `trump`, so the tests that
compare the search with the fold compare two independent computations.
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
        self.table = []   # (pos string, class repr string, move string)

    def add(self, space, pos, jset, cid, move):
        self.moves[(pos, cid)] = move
        masks, _ = space.classes(jset)
        rep = bits(masks[cid])[0] if masks[cid] else 0
        self.table.append((pos_str(pos), space.class_repr(rep, jset), str(move)))

    def move_at(self, pos, cid):
        key = (pos, cid)
        if key not in self.moves:
            raise IfgError("strategy undefined at position %s" % pos_str(pos))
        return self.moves[key]

    def render(self):
        return "\n".join("pos=%s class=%s -> %s" % row
                         for row in sorted(self.table))


def pos_str(pos):
    return "".join(str(d) for d in pos) if pos else "-"


class GameAnalyzer:
    """Uniform-strategy search over one structure with fixed variable count."""

    def __init__(self, structure, nvars):
        self.structure = structure
        self.nvars = nvars
        self.space = Space(structure.size, nvars)
        self._ant = {}
        self._compose = {}

    # -- antichains of maximal winning valuation sets -------------------------

    def antichain(self, node, myturn):
        key = (node.uid, myturn)
        hit = self._ant.get(key)
        if hit is not None:
            return hit
        result = self._antichain(node, myturn)
        self._ant[key] = result
        return result

    def _antichain(self, node, myturn):
        space = self.space
        if isinstance(node, syntax.Atomic):
            mask = atom_mask(self.structure, space, node.atom)
            w = mask if myturn else space.full_team & ~mask
            return [(w, None)]
        elif isinstance(node, syntax.Not):
            child = self.antichain(node.child, not myturn)
            return [(w, (ci,)) for ci, (w, _) in enumerate(child)]
        elif isinstance(node, syntax.Or):
            antl = self.antichain(node.left, myturn)
            antr = self.antichain(node.right, myturn)
            wl = tuple(w for w, _ in antl)
            wr = tuple(w for w, _ in antr)
            if myturn:
                return self._cached(("or+", node.jset, wl, wr),
                                    self._or_verifier, node.jset, wl, wr)
            return self._cached(("or-", wl, wr), self._or_opponent, wl, wr)
        elif isinstance(node, syntax.Exists):
            antc = self.antichain(node.child, myturn)
            wc = tuple(w for w, _ in antc)
            if myturn:
                return self._cached(("ex+", node.n, node.jset, wc),
                                    self._exists_verifier, node.n, node.jset, wc)
            return self._cached(("ex-", node.n, wc),
                                self._exists_opponent, node.n, wc)
        else:
            raise IfgError("not a formula node: %r" % (node,))

    def _cached(self, key, fn, *args):
        hit = self._compose.get(key)
        if hit is None:
            hit = fn(*args)
            self._compose[key] = hit
        return hit

    def _or_verifier(self, jset, wl, wr):
        masks, _ = self.space.classes(jset)
        groups = []
        for li, l in enumerate(wl):
            for ri, r in enumerate(wr):
                per_class = []
                for cls in masks:
                    a, b = cls & l, cls & r
                    if b & ~a == 0:
                        per_class.append(((a, "L"),))
                    elif a & ~b == 0:
                        per_class.append(((b, "R"),))
                    else:
                        per_class.append(((a, "L"), (b, "R")))
                groups.append([(w, (li, ri, moves)) for w, moves in
                               _uniform_picks(per_class, len(wl) * len(wr))])
        return _maximal(groups)

    def _or_opponent(self, wl, wr):
        return _maximal([[(l & r, (li, ri))] for li, l in enumerate(wl)
                         for ri, r in enumerate(wr)])

    def _exists_verifier(self, n, jset, wc):
        masks, _ = self.space.classes(jset)
        groups = []
        for ci, target in enumerate(wc):
            pres = self.space.preimages(target, n)
            per_class = []
            for cls in masks:
                options = {}
                for b, pre in enumerate(pres):
                    options.setdefault(pre & cls, b)
                # options of one class may contain each other: reduce
                per_class.append(_maximal([[o] for o in options.items()]))
            groups.append([(w, (ci, values)) for w, values in
                           _uniform_picks(per_class, len(wc))])
        return _maximal(groups)

    def _exists_opponent(self, n, wc):
        groups = []
        for ci, target in enumerate(wc):
            w = self.space.full_team
            for pre in self.space.preimages(target, n):
                w &= pre
            groups.append([(w, (ci,))])
        return _maximal(groups)

    # -- winning strategies ----------------------------------------------------

    def truth_value(self, formula):
        """true, false or undetermined: which player wins from the full team.

        A sentence is true (false) when the root antichain of player 1 (0)
        holds the full team.
        """
        node = syntax.checked_root(formula, self.nvars)
        if node.freevars:
            raise IfgError("formula is not a sentence: %s"
                           % syntax.render(node))
        full = self.space.full_team
        for myturn, verdict in ((True, "true"), (False, "false")):
            if any(w == full for w, _ in self.antichain(node, myturn)):
                return verdict
        return "undetermined"

    def winning_mask(self, formula, player):
        """Bitmask over all teams V from which the player wins (count small)."""
        node = syntax.checked_root(formula, self.nvars)
        mask = 1
        for w, _ in self.antichain(node, player == 1):
            mask |= self.space.powerset_mask(w)
        return mask

    def has_winning_strategy(self, formula, team, player):
        """(bool, witness Strategy or None) for the given player and team."""
        node = syntax.checked_root(formula, self.nvars)
        if team == 0:
            return True, Strategy(player)
        ant = self.antichain(node, player == 1)
        for idx, (w, _) in enumerate(ant):
            if team & ~w == 0:
                strategy = Strategy(player)
                self._extract(node, (), player == 1, ant, idx, strategy)
                return True, strategy
        return False, None

    def _extract(self, node, pos, myturn, ant, idx, strategy):
        prov = ant[idx][1]
        if isinstance(node, syntax.Atomic):
            return
        elif isinstance(node, syntax.Not):
            child = self.antichain(node.child, not myturn)
            self._extract(node.child, pos + (0,), not myturn, child,
                          prov[0], strategy)
        elif isinstance(node, syntax.Or):
            antl = self.antichain(node.left, myturn)
            antr = self.antichain(node.right, myturn)
            if myturn:
                li, ri, choices = prov
                for cid, choice in enumerate(choices):
                    move = "left" if choice == "L" else "right"
                    strategy.add(self.space, pos, node.jset, cid, move)
            else:
                li, ri = prov
            self._extract(node.left, pos + (1,), myturn, antl, li, strategy)
            self._extract(node.right, pos + (2,), myturn, antr, ri, strategy)
        elif isinstance(node, syntax.Exists):
            antc = self.antichain(node.child, myturn)
            if myturn:
                ci, values = prov
                for cid, b in enumerate(values):
                    strategy.add(self.space, pos, node.jset, cid, b)
            else:
                (ci,) = prov
            self._extract(node.child, pos + (3,), myturn, antc, ci, strategy)

    # -- plays -------------------------------------------------------------------

    def play_out(self, formula, strategies, start):
        """Play both strategies from a start valuation; return (play, winner).

        strategies maps player number to Strategy; a player without an entry
        must never be asked to move.
        """
        node = syntax.checked_root(formula, self.nvars)
        space = self.space
        pos, val, eps = (), start, 1
        play = [(pos, val, eps)]
        while True:
            if isinstance(node, syntax.Atomic):
                truth = eval_atomic(self.structure, node.atom, space.decode(val))
                winner = eps if truth else 1 - eps
                return play, winner
            elif isinstance(node, syntax.Not):
                node, pos, eps = node.child, pos + (0,), 1 - eps
            elif isinstance(node, syntax.Or):
                mover = strategies.get(eps)
                if mover is None:
                    raise IfgError("no strategy for player %d" % eps)
                _, class_of = space.classes(node.jset)
                move = mover.move_at(pos, class_of[val])
                if move == "left":
                    node, pos = node.left, pos + (1,)
                else:
                    node, pos = node.right, pos + (2,)
            elif isinstance(node, syntax.Exists):
                mover = strategies.get(eps)
                if mover is None:
                    raise IfgError("no strategy for player %d" % eps)
                _, class_of = space.classes(node.jset)
                move = mover.move_at(pos, class_of[val])
                val = space.variant_index(val, node.n, move)
                node, pos = node.child, pos + (3,)
            play.append((pos, val, eps))

    def verify_strategy(self, formula, team, strategy):
        """True iff the strategy wins every play from every start in team."""
        node = syntax.checked_root(formula, self.nvars)
        space = self.space
        owner = strategy.owner

        def wins(node, pos, val, eps):
            if isinstance(node, syntax.Atomic):
                truth = eval_atomic(self.structure, node.atom, space.decode(val))
                return truth == (eps == owner)
            elif isinstance(node, syntax.Not):
                return wins(node.child, pos + (0,), val, 1 - eps)
            elif isinstance(node, syntax.Or):
                if eps == owner:
                    _, class_of = space.classes(node.jset)
                    move = strategy.move_at(pos, class_of[val])
                    if move == "left":
                        return wins(node.left, pos + (1,), val, eps)
                    return wins(node.right, pos + (2,), val, eps)
                return (wins(node.left, pos + (1,), val, eps)
                        and wins(node.right, pos + (2,), val, eps))
            elif isinstance(node, syntax.Exists):
                if eps == owner:
                    _, class_of = space.classes(node.jset)
                    b = strategy.move_at(pos, class_of[val])
                    return wins(node.child, pos + (3,),
                                space.variant_index(val, node.n, b), eps)
                return all(wins(node.child, pos + (3,),
                                space.variant_index(val, node.n, b), eps)
                           for b in range(space.size))
            else:
                raise IfgError("not a formula node: %r" % (node,))

        return all(wins(node, (), val, 1) for val in bits(team))

    def reachable_positions(self, formula, team):
        """All positions occurring in some play of the game from team."""
        node = syntax.checked_root(formula, self.nvars)
        space = self.space
        seen = set()

        def walk(node, pos, val, eps):
            if (pos, val, eps) in seen:
                return
            seen.add((pos, val, eps))
            if isinstance(node, syntax.Not):
                walk(node.child, pos + (0,), val, 1 - eps)
            elif isinstance(node, syntax.Or):
                walk(node.left, pos + (1,), val, eps)
                walk(node.right, pos + (2,), val, eps)
            elif isinstance(node, syntax.Exists):
                for b in range(space.size):
                    walk(node.child, pos + (3,),
                         space.variant_index(val, node.n, b), eps)

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
    """
    candidates = {}
    for group in groups:
        for w, prov in group:
            candidates.setdefault(w, prov)
    out = []
    for w in sorted(candidates, key=lambda x: (-x.bit_count(), x)):
        if len(groups) == 1 or not any(w & ~kept == 0 for kept, _ in out):
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
    dual.table = [(pos_str((0,) + _pos_digits(p)), rep, move)
                  for p, rep, move in strategy.table]
    return dual


def _pos_digits(text):
    return () if text == "-" else tuple(int(c) for c in text)


def has_winning_strategy(structure, formula, team, player):
    """One-shot winning-strategy search."""
    return GameAnalyzer(structure, formula.nvars).has_winning_strategy(
        formula, team, player)
