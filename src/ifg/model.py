"""Finite structures, valuations, teams, and the combinatorics over them.

A valuation over N variables with universe size K is encoded as a
little-endian mixed-radix integer: index = sum of a_i * K**i, so v0 is the
least significant digit.  A team is an int bitmask over valuation indices.
Digit-string notation writes a valuation as its digits in variable order,
so "01" means v0=0, v1=1.  The digit slices, n-lines and ~J classes are
read off this encoding by arithmetic on whole masks, with no loop over
valuations.
"""

from itertools import compress
from math import prod

from .errors import IfgError, ParseError, GuardExceeded
from . import syntax

SPACE_LIMIT = 1 << 18  # most valuations of a Space: masks grow bit by bit
# most valuations of a computation over all 2**count teams
MEANING_GUARD = 20
# most bits of the ~J classes one query meets (class count x valuation
# count): each is a full-width mask, so with J empty they grow with count**2
CLASS_TABLE_LIMIT = 1 << 30


class Structure:
    """A finite first-order structure with universe {0, ..., size-1}."""

    def __init__(self, size, constants=None, functions=None, relations=None):
        self.size = size
        self.constants = dict(constants or {})
        self.functions = {name: (arity, dict(table))
                          for name, (arity, table) in (functions or {}).items()}
        self.relations = {name: (arity, frozenset(tuples))
                          for name, (arity, tuples) in (relations or {}).items()}
        self._validate()

    def _validate(self):
        if self.size < 0:
            raise IfgError("universe size must be >= 0")
        rng = range(self.size)
        for name, value in self.constants.items():
            if value not in rng:
                raise IfgError("constant %s = %d out of range" % (name, value))
        for name, (arity, table) in self.functions.items():
            if arity < 1:
                raise IfgError("function %s must have arity >= 1" % name)
            for args, value in table.items():
                if len(args) != arity or any(a not in rng for a in args):
                    raise IfgError("bad argument tuple for %s: %r" % (name, args))
                if value not in rng:
                    raise IfgError("value of %s%r out of range" % (name, args))
            if len(table) != self.size ** arity:
                raise IfgError("function %s is not total" % name)
        for name, (arity, tuples) in self.relations.items():
            for t in tuples:
                if len(t) != arity or any(a not in rng for a in t):
                    raise IfgError("bad tuple for relation %s: %r" % (name, t))

    @classmethod
    def parse(cls, text):
        """Parse the line-oriented structure format.

        universe K
        constant NAME = k
        function NAME/ARITY: a1,..,ak -> b     (one line per tuple)
        relation NAME/ARITY: t1 t2 ...         (tuples a,b,...)
        """
        size = None
        constants = {}
        functions = {}
        relations = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                head, rest = line.split(None, 1)
            except ValueError:
                head, rest = line, ""
            try:
                if head == "universe":
                    size = int(rest)
                elif head == "constant":
                    name, value = rest.split("=")
                    constants[name.strip()] = int(value)
                elif head == "function":
                    sig, body = rest.split(":", 1)
                    name, arity = sig.split("/")
                    name, arity = name.strip(), int(arity)
                    args, value = body.split("->")
                    argtuple = tuple(int(a) for a in args.split(","))
                    table = functions.setdefault(name, (arity, {}))[1]
                    table[argtuple] = int(value)
                elif head == "relation":
                    sig, body = rest.split(":", 1)
                    name, arity = sig.split("/")
                    name, arity = name.strip(), int(arity)
                    tuples = relations.setdefault(name, (arity, set()))[1]
                    for item in body.split():
                        tuples.add(tuple(int(a) for a in item.split(",")))
                else:
                    raise ValueError("unknown directive %r" % head)
            except (ValueError, IndexError) as exc:
                raise ParseError("structure line %d: %s" % (lineno, exc))
        if size is None:
            raise ParseError("structure file must declare 'universe K'")
        return cls(size, constants, functions, relations)

    @classmethod
    def from_file(cls, path):
        with open(path) as handle:
            return cls.parse(handle.read())


def eval_term(structure, term, valuation):
    """Value of a term under a valuation (tuple of universe elements)."""
    if isinstance(term, syntax.Var):
        return valuation[term.index]
    elif isinstance(term, syntax.Const):
        if term.name not in structure.constants:
            raise IfgError("unknown constant %r" % term.name)
        return structure.constants[term.name]
    elif isinstance(term, syntax.App):
        if term.name not in structure.functions:
            raise IfgError("unknown function %r" % term.name)
        arity, table = structure.functions[term.name]
        if len(term.args) != arity:
            raise IfgError("arity mismatch for %r" % term.name)
        args = tuple(eval_term(structure, a, valuation) for a in term.args)
        return table[args]
    else:
        raise IfgError("not a term: %r" % (term,))


def eval_atomic(structure, atom, valuation):
    """Classical satisfaction of an atom under a single valuation."""
    if isinstance(atom, syntax.Eq):
        return (eval_term(structure, atom.lhs, valuation)
                == eval_term(structure, atom.rhs, valuation))
    elif isinstance(atom, syntax.Rel):
        if atom.name not in structure.relations:
            raise IfgError("unknown relation %r" % atom.name)
        arity, tuples = structure.relations[atom.name]
        if len(atom.args) != arity:
            raise IfgError("arity mismatch for %r" % atom.name)
        args = tuple(eval_term(structure, a, valuation) for a in atom.args)
        return args in tuples
    else:
        raise IfgError("not an atom: %r" % (atom,))


def atom_mask(structure, space, atom):
    """The team of the valuations of space under which atom holds."""
    mask = 0
    for i in range(space.count):
        if eval_atomic(structure, atom, space.decode(i)):
            mask |= 1 << i
    return mask


class Space:
    """The set of valuations over N variables with universe size K."""

    def __init__(self, size, nvars):
        if nvars < 0:
            raise IfgError("nvars must be >= 0")
        self.size = size
        self.nvars = nvars
        self.count = size ** nvars
        if self.count > SPACE_LIMIT:
            raise GuardExceeded("%d valuations exceed the limit of %d"
                                % (self.count, SPACE_LIMIT))
        self.full_team = (1 << self.count) - 1
        self._classes = {}   # (J, team) -> parts(J, team)
        self._slices = {}    # n -> (digit slice for each value b, repeat)
        self._digits = None

    # -- valuations ---------------------------------------------------------

    def decode(self, index):
        out = []
        for _ in range(self.nvars):
            out.append(index % self.size)
            index //= self.size
        return tuple(out)

    def encode(self, valuation):
        index = 0
        for i in reversed(range(self.nvars)):
            index = index * self.size + valuation[i]
        return index

    def digits(self, index):
        """Digit-string form of a valuation; '()' for the empty valuation."""
        return self._digit_strings()[index]

    def _digit_strings(self):
        if self._digits is None:
            if self.nvars == 0:
                self._digits = ["()"] * self.count
            else:
                self._digits = ["".join(str(d) for d in self.decode(i))
                                for i in range(self.count)]
        return self._digits

    def variant_index(self, index, n, b):
        stride = self.size ** n
        digit = (index // stride) % self.size
        return index + (b - digit) * stride

    # -- equivalence classes of agree-outside-J ------------------------------

    def lowest(self, team, jset):
        """The lowest valuation of each ~J class that team meets: team with
        its J digits set to 0.  Variables in J from nvars on are ignored."""
        for n in jset:
            if n < self.nvars:
                team = self.variant_team(team, n, 0)
        return team

    def parts(self, jset, team):
        """team cut into the ~J classes it meets, by ascending lowest
        valuation r: the class of r is that of valuation 0 (all values of
        the J digits, the product of their repeats) shifted by r."""
        jset = frozenset(jset)
        key = (jset, team)
        cached = self._classes.get(key)
        if cached is None:
            reps = self.lowest(team, jset)
            self.check_classes(jset, reps)
            zero = prod(self._digit_slices(n)[1] for n in jset
                        if n < self.nvars)
            cached = self._classes[key] = [zero << r & team
                                           for r in bits(reps)]
        return cached

    def classes(self, jset):
        """The ~J classes over the full space, by ascending lowest valuation."""
        return self.parts(jset, self.full_team)

    def check_classes(self, jset, reps):
        """Refuse the ~J classes of the lowest valuations reps when their
        count times the valuation count exceeds CLASS_TABLE_LIMIT bits."""
        met = reps.bit_count()
        if met * self.count > CLASS_TABLE_LIMIT:
            raise GuardExceeded(
                "the ~J classes for J = {%s} need %d masks of %d bits, "
                "above the limit of %d bits"
                % (",".join(str(k) for k in sorted(jset)), met, self.count,
                   CLASS_TABLE_LIMIT))

    def class_repr(self, index, jset):
        """Canonical text for the ~J class of a valuation: digits, J starred."""
        if self.nvars == 0:
            return "()"
        val = self.decode(index)
        return "".join("*" if k in jset else str(val[k])
                       for k in range(self.nvars))

    # -- teams ---------------------------------------------------------------

    def parse_team(self, text):
        """Parse a comma-separated list of digit strings into a team mask.

        At 0 variables the one valuation is written '()'.
        """
        if self.size > 10:
            raise IfgError("digit-string teams require universe size <= 10")
        text = text.strip()
        if not text:
            return 0
        team = 0
        for item in text.split(","):
            item = item.strip()
            if self.nvars == 0 and item == "()":
                item = ""  # the empty valuation, as digits() writes it
            elif len(item) != self.nvars or not item.isdigit():
                raise IfgError("bad valuation %r for %d variables"
                               % (item, self.nvars))
            val = tuple(int(c) for c in item)
            if any(d >= self.size for d in val):
                raise IfgError("digit out of range in %r" % item)
            team |= 1 << self.encode(val)
        return team

    def render_team(self, team):
        """Canonical text of a team: sorted digit strings in braces."""
        digits = self._digit_strings()
        return "{%s}" % ",".join(digits[i] for i in bits(team))

    def render_teams(self, family):
        """render_team of each team of a team set, in ascending team order.

        One walk of the family: the text inside a team's braces is the digit
        string of its lowest valuation, then "," and the text of
        rest = team & (team - 1), the team without that valuation.  rest has
        the smaller index, so in a downward-closed family it was rendered
        earlier in the walk and is looked up in a dict local to the call;
        other families join rest's digit strings.  The empty team is "{}".
        """
        digits = self._digit_strings()
        inner = {0: ""}
        out = []
        for team in bits(family):
            rest = team & (team - 1)
            tail = inner.get(rest)
            if tail is None:
                tail = ",".join(digits[i] for i in bits(rest))
            if team:
                head = digits[(team ^ rest).bit_length() - 1]
                text = head + "," + tail if rest else head
            else:
                text = ""
            inner[team] = text
            out.append("{" + text + "}")
        return out

    # -- variations ----------------------------------------------------------

    def _digit_slices(self, n):
        """(masks of valuations with digit n == b for each b, repeat).
        Digit n is 0 on the first K**n valuations of each period K**(n+1),
        whose starts are full_team // (2**period - 1), a geometric series."""
        cached = self._slices.get(n)
        if cached is None:
            stride = self.size ** n
            period = stride * self.size
            low = (1 << stride) - 1
            if 0 < period <= self.count:
                low *= self.full_team // ((1 << period) - 1)
            masks = [low << (b * stride) & self.full_team
                     for b in range(self.size)]
            repeat = sum(1 << (b * stride) for b in range(self.size))
            cached = self._slices[n] = (masks, repeat)
        return cached

    def preimages(self, team, n):
        """For each value b, the valuations whose n-variant to b is in team.

        Whole-mask form of variant_index: the slice of team with digit n
        equal to b, shifted down to digit value 0 and copied to every value
        of that digit by one integer product (the copies use disjoint
        valuations, so nothing carries).
        """
        masks, repeat = self._digit_slices(n)
        stride = self.size ** n
        return [((team & mask) >> (b * stride)) * repeat
                for b, mask in enumerate(masks)]

    def variant_team(self, team, n, b):
        """{s[n/b] : s in team}: the n-lines that team meets, at digit b."""
        stride = self.size ** n
        low = 0
        for c, mask in enumerate(self._digit_slices(n)[0]):
            low |= (team & mask) >> (c * stride)
        return low << (b * stride)

    def variant_team_all(self, team, n):
        """The union of the n-lines (the ~{n} classes) that team meets."""
        return self.variant_team(team, n, 0) * self._digit_slices(n)[1]

    def powerset_mask(self, team):
        """Team-set mask whose bits are exactly the subsets of team."""
        return powerset(team)


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def bits(mask):
    """Indices of set bits, ascending.

    Up to 64 bits this strips the lowest set bit until none is left.  Each
    step copies the mask, so on wider masks (team sets over 7 or more
    valuations) that loop is quadratic in the width; there the bits are
    read in one pass from the binary text, lowest first.
    """
    if mask.bit_length() > 64:
        flags = bin(mask)[:1:-1].encode().translate(_BIT_BYTES)
        return list(compress(range(len(flags)), flags))
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def powerset(team):
    """Team set of all subsets of team: the product of (1 + 2**2**i)."""
    out = 1
    while team:
        low = team & -team
        out |= out << low
        team ^= low
    return out
