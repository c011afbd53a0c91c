"""Team-set operators and their whole-mask kernels.

A team is an int bitmask over valuation indices, and a team set is an int
bitmask over team indices: bit t says whether team t belongs to it.  The
algebra's operations are pairs of three operators on team sets, each
memoised once by its int arguments: sum (the ∨⁺_J clause), exists (∃⁺)
and exists_minus (∃⁻, which does not depend on J).  sum and exists choose
the kernel.  A downward-closed team set is fixed by its maximal teams, so
or_plus and exists_plus walk that antichain and handle each maximal team
with O(count) big-int operations on whole masks, instead of visiting the
2**count teams one at a time.  On other team sets sum_split places each
~J class with one operand.  exists_minus and exists_blocks take any team
set: each takes the preimage of its clause one block of valuations at a
time, a block being a set that the clause maps into itself.  Three facts
carry them:

- Adding valuation i to a team that lacks it adds 2**i to the team's index.
  So (F & HI[i]) >> 2**i, where HI[i] holds the teams that contain i, is
  the set of teams that a team of F loses when i is dropped from it.
- For team sets A and B whose teams use disjoint sets of valuations,
  {a | b : a in A, b in B} is the plain integer product A * B: every a + b
  equals a | b and determines a and b, so no two terms carry into the
  same bit.
- For a team w inside a block B, (F >> w) & OUT[B], where OUT[B] holds
  the teams that miss B, is the set of teams u missing B with u | w in F.

exists_plus reads a maximal team's variations through `Space.preimages`,
the whole-mask primitive the game search uses too.
"""

from math import prod

from .errors import GuardExceeded
from .model import MEANING_GUARD, bits, powerset


def _hi_mask(i, nbits):
    """The teams (out of nbits team indices) that contain valuation i."""
    step = 1 << i
    mask = ((1 << step) - 1) << step
    width = step << 1
    while width < nbits:
        mask |= mask << width
        width <<= 1
    return mask


class Downsets:
    """The operators and kernels over the team sets of one valuation space.

    The operands of maximal, or_plus and exists_plus must be downward
    closed (the empty team set counts as one); is_downset tells.  The
    other operators and kernels take any team set.
    """

    def __init__(self, space):
        self.space = space
        self._hi = None      # HI[i] for each valuation i, built on first use
        # an algebra's closure meets each team set many times
        self._downset = {}   # team set -> is_downset
        self._dropped = {}   # team set -> _drop(team set)
        self._maximal = {}   # team set -> maximal teams
        self._parts = {}     # (J, team set) -> class-wise powersets
        self._outside = {}   # J -> the teams that miss each ~J class
        self._tables = {}    # (n, J) -> exists_blocks tables
        # one memo per operator, keyed by team-set ints
        self._sum = {}       # (J, left, right) -> sum
        self._exists = {}    # (n, J, team set) -> exists
        self._minus = {}     # (n, team set) -> exists_minus, for every J

    def _hi_masks(self):
        if self._hi is None:
            count = self.space.count
            self._hi = [_hi_mask(i, 1 << count) for i in range(count)]
        return self._hi

    def _drop(self, family):
        """Teams that become a team of family when one valuation is added."""
        out = self._dropped.get(family)
        if out is None:
            out = 0
            for i, hi in enumerate(self._hi_masks()):
                out |= (family & hi) >> (1 << i)
            self._dropped[family] = out
        return out

    def is_downset(self, family):
        """True when every subset of a team of family is in family."""
        known = self._downset.get(family)
        if known is None:
            known = not self._drop(family) & ~family
            self._downset[family] = known
        return known

    def maximal(self, family):
        """Maximal teams of a downward-closed team set, ascending."""
        out = self._maximal.get(family)
        if out is None:
            out = bits(family & ~self._drop(family))
            self._maximal[family] = out
        return out

    def _class_parts(self, jset, family):
        """For each maximal team, the powersets of its parts in ~J classes."""
        key = (jset, family)
        out = self._parts.get(key)
        if out is None:
            classes = self.space.classes(jset)
            out = [[powerset(team & c) for c in classes]
                   for team in self.maximal(family)]
            self._parts[key] = out
        return out

    # -- the operators -----------------------------------------------------------

    def sum(self, jset, left, right):
        """{a | b : a in left, b in right, no ~J class meets both a and b}.

        The plus part of +_J and the minus part of *_J: or_plus when both
        operands are downward closed, sum_split otherwise.
        """
        key = (jset, left, right)
        out = self._sum.get(key)
        if out is None:
            if self.is_downset(left) and self.is_downset(right):
                out = self.or_plus(jset, left, right)
            else:
                out = self.sum_split(jset, left, right)
            self._sum[key] = out
        return out

    def exists(self, n, jset, child):
        """The plus part of C_{n,J} and the minus part of its dual:
        exists_plus when child is downward closed, exists_blocks otherwise."""
        key = (n, jset, child)
        out = self._exists.get(key)
        if out is None:
            if self.is_downset(child):
                out = self.exists_plus(n, jset, child)
            else:
                out = self.exists_blocks(n, jset, child)
            self._exists[key] = out
        return out

    def or_plus(self, jset, left, right):
        """{a | b : a in left, b in right, no ~J class meets both a and b}."""
        rparts = self._class_parts(jset, right)
        out = 0
        for lp in self._class_parts(jset, left):
            for rp in rparts:
                product = 1
                for x, y in zip(lp, rp):
                    product *= x | y
                out |= product
        return out

    def exists_plus(self, n, jset, child):
        """Teams V with a function V ->_J A whose n-variant of V is in child.

        Per maximal team W of child, V qualifies when each ~J class c of V
        fits in the preimage of W under one value b: the team set
        prod_c (union_b powerset(pre_b(W) & c)).
        """
        classes = self.space.classes(jset)
        out = 0
        for w in self.maximal(child):
            pres = set(self.space.preimages(w, n))
            product = 1
            for c in classes:
                part = 0
                for pre in pres:
                    part |= powerset(pre & c)
                product *= part
            out |= product
        return out

    def outside(self, jset):
        """For each ~J class, the team set of the teams that miss it."""
        out = self._outside.get(jset)
        if out is None:
            full = self.space.full_team
            out = self._outside[jset] = [powerset(full & ~c)
                                         for c in self.space.classes(jset)]
        return out

    def sum_split(self, jset, left, right):
        """sum on any team sets, by splits of the ~J classes.

        Each class goes to the teams of one operand, and the other operand
        keeps only its teams that miss the class; a class that one operand
        never meets needs no split.  Once every class is placed, the two
        operands use disjoint valuations, so their product is the sum.
        """
        outside = self.outside(jset)
        last = len(outside)

        def split(i, left, right):
            while i < last and left and right:
                lmiss, rmiss = left & outside[i], right & outside[i]
                i += 1
                if lmiss != left and rmiss != right:
                    return split(i, left, rmiss) | split(i, lmiss, right)
            return left * right

        return split(0, left, right)

    def exists_minus(self, n, child):
        """Teams V whose variation over every value of variable n is in child.

        The minus part of C_{n,J} and the plus part of its dual, the same
        for every J.  Any team set, one n-line (a ~{n} class) at a time: a
        team keeps its part outside the line and swaps the whole line for
        each nonempty part of it.
        """
        key = (n, child)
        out = self._minus.get(key)
        if out is None:
            lines = frozenset((n,))
            out = child
            for line, miss in zip(self.space.classes(lines),
                                  self.outside(lines)):
                keep, out, part = out >> line & miss, out & miss, line
                while part:   # each nonempty part of the line
                    out |= keep << part
                    part = part - 1 & line
            self._minus[key] = out
        return out

    def exists_blocks(self, n, jset, child):
        """exists_plus on any team set, one ~(J + {n}) class at a time.

        Each ~J class lies in one such block, and s[n/a] stays in the block
        of s.  Per block, a team keeps its part outside and swaps its part
        v inside for each w that v varies to, from a table per (n, J) of
        the v's of each w.  A function V ->_J A picks one value per ~J
        class, so a table is built class by class: each nonempty part of
        a class with its variation to each value, or the empty part.
        """
        tables = self._tables.get((n, jset))
        if tables is None:
            pairs = self.table_pairs(n, jset)
            if pairs > 1 << MEANING_GUARD:
                raise GuardExceeded(
                    "C_%d,%s needs %d team-variant pairs (limit %d)"
                    % (n, sorted(jset), pairs, 1 << MEANING_GUARD))
            space = self.space
            classes = space.classes(jset)
            tables = []
            for block in space.classes(jset | {n}):
                table = {0: [0]}
                for c in classes:
                    if c & block:
                        moves = [(p, space.variant_team(p, n, b))
                                 for p in bits(powerset(c))[1:]
                                 for b in range(space.size)]
                        grown = {}
                        for w, sources in table.items():
                            grown.setdefault(w, []).extend(sources)
                            for p, x in moves:
                                grown.setdefault(w | x, []).extend(
                                    v | p for v in sources)
                        table = grown
                tables.append(table)
            self._tables[(n, jset)] = tables
        for out, table in zip(self.outside(jset | {n}), tables):
            part = 0
            for w, sources in table.items():
                keep = child >> w & out
                if keep:
                    for v in sources:
                        part |= keep << v
            child = part
        return child

    def table_pairs(self, n, jset):
        """Size of the exists_blocks tables, refused above 2**MEANING_GUARD:
        the sum over the blocks of the product over their ~J classes c of
        1 + K * (2**|c| - 1)."""
        return sum(prod(1 + self.space.size * ((1 << c.bit_count()) - 1)
                        for c in self.space.classes(jset) if c & block)
                   for block in self.space.classes(jset | {n}))
