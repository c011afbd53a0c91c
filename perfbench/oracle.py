"""The benchmark's own checks of the package's outputs.

Nothing here imports `ifg`.  Each checker works from the definitions:

- `tarski`: classical satisfaction, for formulas whose slash sets are empty;
- `team_meaning`: the definitional team semantics (saturated splits and
  J-independent functions), run over every team at valuation count 4;
- `strategy_wins`: rebuilds a printed `ifg game` strategy table and plays
  every play from every valuation of the team;
- `add`, `mul`, `cyl`: +_J, *_J and C_{n,J} by enumeration over all teams;
- `reduct_failures`: the Kleene and monadic axioms on reduct tables;
- `omega_expected`: the omega-membership criterion for generated algebras.

`self_test` runs each checker on worked values from the paper.
"""

import functools
import random
import re

import inputs


# ---------------------------------------------------------------------------
# valuations and teams


def decode(index, size, nvars):
    out = []
    for _ in range(nvars):
        out.append(index % size)
        index //= size
    return tuple(out)


def encode(val, size):
    index = 0
    for digit in reversed(val):
        index = index * size + digit
    return index


def members(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def class_key(val, jset):
    return tuple(d for k, d in enumerate(val) if k not in jset)


def blocks(team, size, nvars, jset):
    """The team's valuations grouped by agreement outside jset."""
    groups = {}
    for v in members(team):
        key = class_key(decode(v, size, nvars), jset)
        groups[key] = groups.get(key, 0) | 1 << v
    return list(groups.values())


def shift(team, size, nvars, n, value):
    """The team with variable n set to value in every valuation."""
    out = 0
    for v in members(team):
        val = list(decode(v, size, nvars))
        val[n] = value
        out |= 1 << encode(val, size)
    return out


# ---------------------------------------------------------------------------
# formulas: atoms, classical truth, definitional team semantics


def term_value(spec, term, val):
    return val[term[1]] if term[0] == "v" else spec["constants"][term[1]]


def atom_true(spec, f, val):
    if f[0] == "eq":
        return term_value(spec, f[1], val) == term_value(spec, f[2], val)
    return term_value(spec, f[1], val) in spec["relations"]["P"]


def core(f):
    """Desugar /\\ and A as the package's parser does:
    p /\\{J} q is ~(~p \\/{J} ~q), and A vn/{J} p is ~E vn/{J} ~p."""
    tag = f[0]
    if tag in ("eq", "P"):
        return ("atom", f)
    if tag == "not":
        return ("not", core(f[1]))
    if tag == "or":
        return ("or", frozenset(f[1]), core(f[2]), core(f[3]))
    if tag == "and":
        return ("not", ("or", frozenset(f[1]), ("not", core(f[2])),
                        ("not", core(f[3]))))
    if tag == "E":
        return ("ex", f[1], frozenset(f[2]), core(f[3]))
    return ("not", ("ex", f[1], frozenset(f[2]), ("not", core(f[3]))))


def tarski(spec, f, val):
    """Classical satisfaction; slash sets are ignored."""
    tag = f[0]
    if tag in ("eq", "P"):
        return atom_true(spec, f, val)
    if tag == "not":
        return not tarski(spec, f[1], val)
    if tag == "or":
        return tarski(spec, f[2], val) or tarski(spec, f[3], val)
    if tag == "and":
        return tarski(spec, f[2], val) and tarski(spec, f[3], val)
    results = []
    for b in range(spec["size"]):
        moved = list(val)
        moved[f[1]] = b
        results.append(tarski(spec, f[3], tuple(moved)))
    return any(results) if tag == "E" else all(results)


class TeamSemantics:
    """Team satisfaction straight from the clauses, one team at a time."""

    def __init__(self, spec, nvars):
        self.spec = spec
        self.size = spec["size"]
        self.nvars = nvars
        self.count = self.size ** nvars
        self.memo = {}

    def sat(self, node, team, positive):
        key = (id(node), team, positive)
        hit = self.memo.get(key)
        if hit is None:
            hit = self._sat(node, team, positive)
            self.memo[key] = hit
        return hit

    def _sat(self, node, team, positive):
        size, nvars = self.size, self.nvars
        tag = node[0]
        if tag == "atom":
            return all(atom_true(self.spec, node[1], decode(v, size, nvars))
                       == positive for v in members(team))
        if tag == "not":
            return self.sat(node[1], team, not positive)
        if tag == "or":
            if not positive:
                return (self.sat(node[2], team, False)
                        and self.sat(node[3], team, False))
            parts = blocks(team, size, nvars, node[1])
            for choice in range(1 << len(parts)):
                left = 0
                for i, part in enumerate(parts):
                    if choice >> i & 1:
                        left |= part
                if (self.sat(node[2], left, True)
                        and self.sat(node[3], team ^ left, True)):
                    return True
            return False
        n, jset, child = node[1], node[2], node[3]
        if not positive:
            moved = 0
            for b in range(size):
                moved |= shift(team, size, nvars, n, b)
            return self.sat(child, moved, False)
        parts = blocks(team, size, nvars, jset)
        for code in range(size ** len(parts)):
            moved = 0
            for part in parts:
                moved |= shift(part, size, nvars, n, code % size)
                code //= size
            if self.sat(child, moved, True):
                return True
        return False


def team_meaning(spec, nvars, f):
    """(plus, minus) team-set masks of a formula over every team."""
    sem = TeamSemantics(spec, nvars)
    node = core(f)
    plus = minus = 0
    for team in range(1 << sem.count):
        if sem.sat(node, team, True):
            plus |= 1 << team
        if sem.sat(node, team, False):
            minus |= 1 << team
    return plus, minus


def truth_value(spec, nvars, f):
    sem = TeamSemantics(spec, nvars)
    full = (1 << sem.count) - 1
    node = core(f)
    if sem.sat(node, full, True):
        return "true"
    if sem.sat(node, full, False):
        return "false"
    return "undetermined"


def tarski_meaning(spec, nvars, f):
    """The meaning of a slash-free formula: all subsets of its models."""
    size = spec["size"]
    sat = 0
    for v in range(size ** nvars):
        if tarski(spec, f, decode(v, size, nvars)):
            sat |= 1 << v
    full = (1 << size ** nvars) - 1
    return inputs.powerset_mask(sat), inputs.powerset_mask(full & ~sat)


# ---------------------------------------------------------------------------
# parsing the CLI's output


_TEAM_RE = re.compile(r"\{([0-9,]*)\}")


def parse_team(text, size):
    team = 0
    for item in filter(None, text.split(",")):
        team |= 1 << encode(tuple(int(c) for c in item), size)
    return team


def parse_teamset(text, size):
    mask = 0
    for body in _TEAM_RE.findall(text):
        mask |= 1 << parse_team(body, size)
    return mask


def parse_meaning(text, size):
    """(plus, minus) from `ifg meaning` output."""
    lines = text.split("\n")
    if "plus:" not in lines or "minus:" not in lines:
        raise ValueError("no plus:/minus: sections")
    cut = lines.index("minus:")
    return (parse_teamset(" ".join(lines[1:cut]), size),
            parse_teamset(" ".join(lines[cut + 1:]), size))


_ELEMENT_RE = re.compile(r"^plus=\[(.*)\] minus=\[(.*)\]$")


def parse_dump(text, size):
    """Elements listed by `ifg algebra-gen`, in order."""
    lines = text.strip("\n").split("\n")
    head = re.match(r"^base=(\d+) dim=(\d+) count=(\d+)$", lines[0])
    if head is None or int(head.group(1)) != size:
        raise ValueError("bad algebra-gen header %r" % lines[0])
    out = []
    for line in lines[1:]:
        m = _ELEMENT_RE.match(line)
        if m is None:
            raise ValueError("bad element line %r" % line)
        out.append((parse_teamset(m.group(1), size),
                    parse_teamset(m.group(2), size)))
    if len(out) != int(head.group(3)):
        raise ValueError("count %s but %d elements" % (head.group(3), len(out)))
    return out


_MOVE_RE = re.compile(r"^pos=(\S+) class=(\S+) -> (\S+)$")


def parse_game(text, player):
    """(won, strategy table) from `ifg game` output."""
    lines = text.strip("\n").split("\n")
    if lines[0] == "no winning strategy for player %d" % player:
        return False, None
    if lines[0] != "winning strategy for player %d" % player:
        raise ValueError("bad game output %r" % lines[0])
    table = {}
    for line in lines[1:]:
        m = _MOVE_RE.match(line)
        if m is None:
            raise ValueError("bad strategy line %r" % line)
        key = (m.group(1), m.group(2))
        if key in table and table[key] != m.group(3):
            raise ValueError("two moves at %s class %s" % key)
        table[key] = m.group(3)
    return True, table


# ---------------------------------------------------------------------------
# play-out of printed strategies


def strategy_wins(spec, nvars, f, team, owner, table):
    """True iff the strategy wins every play from every valuation in team.

    Positions are child-index strings (0 under ~, 1 and 2 under \\/, 3 under
    E; '-' for the root); a move is looked up by position and by the
    valuation's digits with the slashed variables starred.
    """
    size = spec["size"]

    def move(pos, jset, val):
        key = (pos or "-", "".join("*" if k in jset else str(d)
                                   for k, d in enumerate(val)))
        if key not in table:
            raise ValueError("strategy has no move at %s class %s" % key)
        return table[key]

    def wins(node, pos, val, eps):
        tag = node[0]
        if tag == "atom":
            return atom_true(spec, node[1], val) == (eps == owner)
        if tag == "not":
            return wins(node[1], pos + "0", val, 1 - eps)
        if tag == "or":
            if eps == owner:
                side = move(pos, node[1], val)
                if side not in ("left", "right"):
                    raise ValueError("bad move %r" % side)
                if side == "left":
                    return wins(node[2], pos + "1", val, eps)
                return wins(node[3], pos + "2", val, eps)
            return (wins(node[2], pos + "1", val, eps)
                    and wins(node[3], pos + "2", val, eps))
        n, jset, child = node[1], node[2], node[3]
        if eps == owner:
            values = [int(move(pos, jset, val))]
        else:
            values = range(size)
        for b in values:
            moved = list(val)
            moved[n] = b
            if not wins(child, pos + "3", tuple(moved), eps):
                return False
        return True

    node = core(f)
    return all(wins(node, "", decode(v, size, nvars), 1)
               for v in members(team))


# ---------------------------------------------------------------------------
# the algebra operators by enumeration


def _jsets(nvars):
    return [frozenset(i for i in range(nvars) if code >> i & 1)
            for code in range(1 << nvars)]


@functools.lru_cache(maxsize=None)
def add(size, nvars, jset, x, y):
    """x +_J y: plus holds V when some J-saturated split V1, V2 of V has V1
    in x+ and V2 in y+; minus is x- meet y-."""
    count = size ** nvars
    plus = 0
    for team in range(1 << count):
        parts = blocks(team, size, nvars, jset)
        for choice in range(1 << len(parts)):
            left = 0
            for i, part in enumerate(parts):
                if choice >> i & 1:
                    left |= part
            if x[0] >> left & 1 and y[0] >> (team ^ left) & 1:
                plus |= 1 << team
                break
    return plus, x[1] & y[1]


def neg(x):
    return x[1], x[0]


def mul(size, nvars, jset, x, y):
    return neg(add(size, nvars, jset, neg(x), neg(y)))


@functools.lru_cache(maxsize=None)
def cyl(size, nvars, n, jset, x):
    """C_{n,J}(x): plus holds V when a J-independent choice for vn moves V
    into x+; minus holds V when V with vn ranging over everything is in x-."""
    count = size ** nvars
    plus = minus = 0
    for team in range(1 << count):
        parts = blocks(team, size, nvars, jset)
        for code in range(size ** len(parts)):
            moved = 0
            for part in parts:
                moved |= shift(part, size, nvars, n, code % size)
                code //= size
            if x[0] >> moved & 1:
                plus |= 1 << team
                break
        spread = 0
        for b in range(size):
            spread |= shift(team, size, nvars, n, b)
        if x[1] >> spread & 1:
            minus |= 1 << team
    return plus, minus


def is_double_suit(x):
    return (inputs.is_downset(x[0]) and inputs.is_downset(x[1])
            and x[0] & x[1] == 1)


def sample_ops(rng, size, nvars, elements, k):
    """k random (name, args, brute-force result) over the elements."""
    out = []
    for _ in range(k):
        jset = rng.choice(_jsets(nvars))
        x, y = rng.choice(elements), rng.choice(elements)
        pick = rng.randrange(3)
        if pick == 0:
            out.append(("add", (jset, x, y), add(size, nvars, jset, x, y)))
        elif pick == 1:
            out.append(("mul", (jset, x, y), mul(size, nvars, jset, x, y)))
        else:
            n = rng.randrange(nvars)
            out.append(("cyl", (n, jset, x), cyl(size, nvars, n, jset, x)))
    return out


def omega_expected(spec, nvars):
    """Criterion: with K >= 2, omega lies in the algebra generated by the
    atoms iff N >= 2 or some atom in v0 is true of some elements and false
    of others; over constants and unary relations, that is a constant or a
    relation that is neither empty nor everything."""
    size = spec["size"]
    if size == 0:
        return True
    if size == 1 or nvars == 0:
        return False
    if nvars >= 2:
        return True
    return bool(spec["constants"]) or any(
        0 < len(set(rel)) < size for rel in spec["relations"].values())


# ---------------------------------------------------------------------------
# Kleene and monadic axioms on reduct tables


def reduct_failures(bottom, top, join, meet, neg_t, nabla):
    """Names of the axioms of a monadic Kleene algebra the tables break."""
    n = len(join)
    rng = random.Random(n)
    rows = range(n)
    fails = []

    def leq(a, b):
        return join[a][b] == b

    if any(join[a][b] != join[b][a] or meet[a][b] != meet[b][a]
           for a in rows for b in rows):
        fails.append("commutative")
    if any(join[a][meet[a][b]] != a or meet[a][join[a][b]] != a
           for a in rows for b in rows):
        fails.append("absorption")
    if any(join[a][bottom] != a or meet[a][top] != a for a in rows):
        fails.append("bounds")
    triples = [(rng.randrange(n), rng.randrange(n), rng.randrange(n))
               for _ in range(min(n ** 3, 3000))]
    if any(join[join[a][b]][c] != join[a][join[b][c]]
           or meet[meet[a][b]][c] != meet[a][meet[b][c]] for a, b, c in triples):
        fails.append("associative")
    if any(meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]
           for a, b, c in triples):
        fails.append("distributive")
    if any(neg_t[neg_t[a]] != a or neg_t[join[a][b]] != meet[neg_t[a]][neg_t[b]]
           for a in rows for b in rows):
        fails.append("de-morgan")
    if any(not leq(meet[a][neg_t[a]], join[b][neg_t[b]])
           for a in rows for b in rows):
        fails.append("kleene")
    if nabla[bottom] != bottom:
        fails.append("Q1")
    if any(not leq(a, nabla[a]) for a in rows):
        fails.append("Q2")
    if any(nabla[join[a][b]] != join[nabla[a]][nabla[b]]
           for a in rows for b in rows):
        fails.append("Q3")
    if any(nabla[meet[a][nabla[b]]] != meet[nabla[a]][nabla[b]]
           for a in rows for b in rows):
        fails.append("Q4")
    if any(nabla[neg_t[nabla[a]]] != neg_t[nabla[a]] for a in rows):
        fails.append("Q5")
    return fails


def quantifier_type(bottom, top, join, meet, neg_t, nabla):
    """("type0", None), ("type1", c), ("type2", (a, b)) or (None, None),
    from the definitions: above bottom, type 0 sends everything to top;
    type 1 at a fixed point c sends x <= c to c and the rest to top; type 2
    at complementary fixed points a, b sends x <= a to a, other x <= b to b
    and the rest to top."""
    n = len(join)
    rest = [a for a in range(n) if a != bottom]
    fixed = [c for c in range(n) if neg_t[c] == c]
    if all(nabla[a] == top for a in rest):
        return "type0", None
    for c in fixed:
        if all(nabla[a] == (c if join[a][c] == c else top) for a in rest):
            return "type1", c
    for a in fixed:
        for b in fixed:
            if a == b or meet[a][b] != bottom or join[a][b] != top:
                continue
            if all(nabla[x] == (a if join[x][a] == a else
                                b if join[x][b] == b else top) for x in rest):
                return "type2", (a, b)
    return None, None


# ---------------------------------------------------------------------------
# the laws the registry expects to fail, as equations


def refuted_equations(size, nvars, pool):
    """Which of the registry's expected-failing equations the pool refutes."""
    jsets = _jsets(nvars)
    full = frozenset(range(nvars))
    count = size ** nvars
    one = ((1 << (1 << count)) - 1, 1)
    rooted = [x for x in pool if x[0] & 1 and x[1] & 1]
    found = set()
    for j in jsets:
        for k in jsets:
            for x in rooted:
                for y in rooted:
                    if add(size, nvars, j, x, mul(size, nvars, k, x, y)) != x:
                        found.add("absorption-eq")
            for x in pool:
                for y in pool:
                    for z in pool:
                        if (add(size, nvars, k, add(size, nvars, j, x, y), z)
                                != add(size, nvars, j, x,
                                       add(size, nvars, k, y, z))):
                            found.add("associativity-mixed-eq")
                        if (mul(size, nvars, j, x, add(size, nvars, k, y, z))
                                != add(size, nvars, k, mul(size, nvars, j, x, y),
                                       mul(size, nvars, j, x, z))):
                            found.add("distributivity-eq")
            for el in jsets:
                for n in range(nvars):
                    for x in pool:
                        for y in pool:
                            cy = cyl(size, nvars, n, k, y)
                            inner = cyl(size, nvars, n, j,
                                        mul(size, nvars, el, x, cy))
                            outer = mul(size, nvars, el,
                                        cyl(size, nvars, n, j, x), cy)
                            if inner[0] != outer[0]:
                                found.add("cyl-product-plus-eq")
    for x in pool:
        if add(size, nvars, full, x, neg(x)) != one:
            found.add("excluded-middle")
    return found


EXPECTED_FAILING = ("absorption-eq", "associativity-mixed-eq",
                    "cyl-product-plus-eq", "distributivity-eq",
                    "excluded-middle")


# ---------------------------------------------------------------------------
# self-test on the paper's worked values


def self_test():
    """Names of the worked examples a checker gets wrong (empty: all pass)."""
    bad = []
    eq2 = {"size": 2, "constants": {}, "relations": {"P": ()}}
    pennies = ("A", 0, (), ("E", 1, (0,), ("eq", ("v", 0), ("v", 1))))
    if truth_value(eq2, 2, pennies) != "undetermined":
        bad.append("matching pennies undetermined at K=2")
    for table in ({("030", "*0"): str(a), ("030", "*1"): str(b)}
                  for a in range(2) for b in range(2)):
        if strategy_wins(eq2, 2, pennies, 15, 1, table):
            bad.append("a matching-pennies strategy wins")
    signalled = ("A", 0, (), ("E", 1, (), ("eq", ("v", 0), ("v", 1))))
    copy = {("030", "%d%d" % (a, b)): str(a) for a in range(2) for b in range(2)}
    if not strategy_wins(eq2, 2, signalled, 15, 1, copy):
        bad.append("copying strategy loses")
    if truth_value(eq2, 2, signalled) != "true":
        bad.append("signalled sentence not true")

    diagonal = ("eq", ("v", 0), ("v", 1))
    want = (inputs.powerset_mask(0b1001), inputs.powerset_mask(0b0110))
    if team_meaning(eq2, 2, diagonal) != want:
        bad.append("diagonal meaning at (2,2)")
    if tarski_meaning(eq2, 2, diagonal) != want:
        bad.append("diagonal meaning, classical")

    # (x +_0 y) +_N z != x +_0 (y +_N z) for x, y, z the meanings of
    # v0=c0, v0=c1, v0=c2 at K=3
    c3 = {"size": 3, "constants": {"c0": 0, "c1": 1, "c2": 2},
          "relations": {"P": ()}}
    x, y, z = (team_meaning(c3, 1, ("eq", ("v", 0), ("c", "c%d" % i)))
               for i in range(3))
    empty, full = frozenset(), frozenset({0})
    lhs = add(3, 1, empty, x, y)
    rhs = add(3, 1, empty, x, add(3, 1, full, y, z))
    if lhs[0] != _teamset(0, 1, 2, 3):
        bad.append("associativity lhs")
    if rhs[0] != _teamset(0, 1, 2, 4, 3, 5):
        bad.append("associativity rhs")
    if add(3, 1, full, lhs, z) == rhs:
        bad.append("associativity holds for v0=c0,c1,c2")

    chain = ([[max(a, b) for b in range(3)] for a in range(3)],
             [[min(a, b) for b in range(3)] for a in range(3)], [2, 1, 0])
    if reduct_failures(0, 2, *chain, [0, 1, 2]):
        bad.append("identity quantifier on the 3-chain")
    if quantifier_type(0, 2, *chain, [0, 1, 2]) != ("type1", 1):
        bad.append("identity on the 3-chain is type 1 at its centre")
    if "Q2" not in reduct_failures(0, 2, *chain, [0, 0, 2]):
        bad.append("Q2 violation unseen")

    if omega_expected(eq2, 1) or not omega_expected(eq2, 2):
        bad.append("omega criterion without constants")
    if not omega_expected(c3, 1):
        bad.append("omega criterion with constants")

    for (size, nvars), (_, witnesses) in inputs.LAW_CONTEXTS.items():
        missing = set(EXPECTED_FAILING) - refuted_equations(
            size, nvars, witnesses)
        if missing:
            bad.append("witnesses at (%d,%d) miss %s"
                       % (size, nvars, ",".join(sorted(missing))))
    return bad


def _teamset(*teams):
    mask = 0
    for team in teams:
        mask |= 1 << team
    return mask
