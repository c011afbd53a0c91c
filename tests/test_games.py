import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import classical
from ifg import syntax, trump, games
from ifg.errors import GuardExceeded, IfgError
from ifg.model import Structure, Space, bits, eval_atomic
from teamsem import TeamSemantics

from test_acceptance import REL2, depth_three_nodes
from test_syntax import ATOMS, nodes, signature

EQ2 = Structure(2)

SAMPLE_TEXTS = [
    "v0=v1",
    "~(v0=v1)",
    "(v0=v1 \\/{} ~(v0=v1))",
    "(v0=v1 \\/{0,1} ~(v0=v1))",
    "E v1/{} (v0=v1)",
    "E v1/{0} (v0=v1)",
    "A v0/{} E v1/{0} (v0=v1)",
    "A v0/{} E v1/{} (v0=v1)",
]


def test_empty_team_wins_for_both_players():
    ga = games.GameAnalyzer(EQ2, 2)
    f = syntax.parse("A v0/{} E v1/{0} (v0=v1)", 2)
    for player in (0, 1):
        won, strategy = ga.has_winning_strategy(f, 0, player)
        assert won and strategy.moves == {}


def test_winning_mask_refuses_counts_above_the_meaning_guard():
    """It unions powersets over all 2**count teams: at count 32 that ran
    out of memory instead of being refused."""
    ga = games.GameAnalyzer(EQ2, 5)
    start = time.perf_counter()
    with pytest.raises(GuardExceeded, match=r"needs 32 valuations "
                                            r"\(limit 20\)"):
        ga.winning_mask(syntax.parse("v0=v0", 5).root, 1)
    assert time.perf_counter() - start < 0.5


def test_matching_pennies_has_no_winner():
    ga = games.GameAnalyzer(EQ2, 2)
    f = syntax.parse("A v0/{} E v1/{0} (v0=v1)", 2)
    full = ga.space.full_team
    assert not ga.has_winning_strategy(f, full, 1)[0]
    assert not ga.has_winning_strategy(f, full, 0)[0]


def test_copy_strategy_wins():
    ga = games.GameAnalyzer(EQ2, 2)
    f = syntax.parse("E v1/{} (v0=v1)", 2)
    full = ga.space.full_team
    won, strategy = ga.has_winning_strategy(f, full, 1)
    assert won
    assert ga.verify_strategy(f, full, strategy)
    # the strategy copies v0 into v1 on each singleton information class
    moves = {rep: move for (pos, rep), move in strategy.moves.items()
             if pos == ()}
    for i in range(ga.space.count):
        assert moves[i] == ga.space.decode(i)[0]


def test_uniformity_blocks_copying():
    ga = games.GameAnalyzer(EQ2, 2)
    f = syntax.parse("E v1/{0} (v0=v1)", 2)
    assert not ga.has_winning_strategy(f, ga.space.full_team, 1)[0]
    # on a team with a single value of v0 the uniform choice works
    assert ga.has_winning_strategy(f, ga.space.parse_team("00,01"), 1)[0]


def test_signaling_through_an_extra_variable():
    f2 = syntax.parse("(v0=v1 \\/{0,1} ~(v0=v1))", 2)
    ga2 = games.GameAnalyzer(EQ2, 2)
    assert not ga2.has_winning_strategy(f2, ga2.space.full_team, 1)[0]
    f3 = syntax.parse("(v0=v1 \\/{0,1} ~(v0=v1))", 3)
    ga3 = games.GameAnalyzer(EQ2, 3)
    team = ga3.space.parse_team("001,010,100,111")
    won, strategy = ga3.has_winning_strategy(f3, team, 1)
    assert won
    assert ga3.verify_strategy(f3, team, strategy)


def test_agreement_with_trump_semantics():
    ga = games.GameAnalyzer(EQ2, 2)
    ev = TeamSemantics(EQ2, 2)
    for text in SAMPLE_TEXTS:
        f = syntax.parse(text, 2)
        for team in range(1 << ga.space.count):
            assert (ga.has_winning_strategy(f, team, 1)[0]
                    == ev.satisfies(f, team, True))
            assert (ga.has_winning_strategy(f, team, 0)[0]
                    == ev.satisfies(f, team, False))


def test_winning_mask_matches_search():
    ga = games.GameAnalyzer(EQ2, 2)
    for text in SAMPLE_TEXTS:
        f = syntax.parse(text, 2)
        for player in (0, 1):
            mask = ga.winning_mask(f.root, player)
            for team in range(1 << ga.space.count):
                assert (mask >> team & 1) == ga.has_winning_strategy(
                    f, team, player)[0]


def test_negation_swaps_players():
    ga = games.GameAnalyzer(EQ2, 2)
    for text in SAMPLE_TEXTS:
        f = syntax.parse(text, 2)
        neg = syntax.negate(f.root)
        for player in (0, 1):
            assert (ga.winning_mask(neg, player)
                    == ga.winning_mask(f.root, 1 - player))


def test_extracted_witnesses_verify():
    ga = games.GameAnalyzer(EQ2, 2)
    for text in SAMPLE_TEXTS:
        f = syntax.parse(text, 2)
        for player in (0, 1):
            for team in range(1 << ga.space.count):
                won, strategy = ga.has_winning_strategy(f, team, player)
                if won:
                    assert ga.verify_strategy(f, team, strategy)


# -- duality -------------------------------------------------------------------


def test_dual_strategy_wins_the_negation():
    ga = games.GameAnalyzer(EQ2, 2)
    f = syntax.parse("(v0=v1 \\/{} ~(v0=v1))", 2)
    full = ga.space.full_team
    won, strategy = ga.has_winning_strategy(f, full, 1)
    assert won
    dual = games.dualize(strategy)
    assert dual.owner == 0
    g = syntax.Formula(syntax.negate(f.root), 2)
    assert ga.verify_strategy(g, full, dual)


def test_double_dual_prefixes_positions():
    ga = games.GameAnalyzer(EQ2, 2)
    f = syntax.parse("E v1/{} (v0=v1)", 2)
    _, strategy = ga.has_winning_strategy(f, ga.space.full_team, 1)
    twice = games.dualize(games.dualize(strategy))
    assert twice.owner == strategy.owner
    assert twice.moves == {((0, 0) + pos, rep): move
                           for (pos, rep), move in strategy.moves.items()}


# -- plays ---------------------------------------------------------------------


def test_play_out_follows_the_strategy():
    ga = games.GameAnalyzer(EQ2, 2)
    f = syntax.parse("E v1/{} (v0=v1)", 2)
    full = ga.space.full_team
    _, strategy = ga.has_winning_strategy(f, full, 1)
    for start in bits(full):
        play, winner = ga.play_out(f, {1: strategy}, start)
        assert winner == 1
        assert play[0] == ((), start, 1)
        assert play[-1][0] == (3,)


def test_play_out_with_falsifier_moves():
    ga = games.GameAnalyzer(EQ2, 1)
    f = syntax.parse("A v0/{} (v0=v0)", 1)
    chooser = games.Strategy(0)
    for val in range(ga.space.count):
        chooser.add(ga.space, (0,), frozenset(), val, 1)
    play, winner = ga.play_out(f, {0: chooser}, 0)
    assert winner == 1  # v0=v0 holds whatever the falsifier picks
    assert any(eps == 0 for _, _, eps in play)


def test_play_out_requires_a_strategy_for_the_mover():
    ga = games.GameAnalyzer(EQ2, 2)
    f = syntax.parse("E v1/{} (v0=v1)", 2)
    with pytest.raises(IfgError):
        ga.play_out(f, {}, 0)
    with pytest.raises(IfgError, match="no strategy for player 1"):
        ga.play_out(f, {1: games.Strategy(0)}, 0)


def test_undefined_strategy_position_raises():
    s = games.Strategy(1)
    with pytest.raises(IfgError):
        s.move_at((), 0)


# -- reachability ----------------------------------------------------------------


def test_reachable_positions_have_matching_polarity():
    ga = games.GameAnalyzer(EQ2, 2)
    f = syntax.parse("A v0/{} E v1/{0} (v0=v1)", 2)
    polarity = {pos: pol for pos, _, pol in f.subformulas()}
    reached = ga.reachable_positions(f, ga.space.full_team)
    assert reached
    for pos, _, eps in reached:
        assert (eps == 1) == polarity[pos]


def test_unreachable_positions_example():
    ga = games.GameAnalyzer(EQ2, 2)
    f = syntax.parse("E v1/{} (v0=v1)", 2)
    team = ga.space.parse_team("00,01")
    reached = ga.reachable_positions(f, team)
    assert ((), ga.space.parse_team("00").bit_length() - 1, 1) in reached
    # the falsifier never owns the root, and v0 is never modified
    assert ((), 0, 0) not in reached
    for digits in ("10", "11"):
        index = ga.space.encode(tuple(int(c) for c in digits))
        assert ((3,), index, 1) not in reached


def test_every_entry_checks_the_variable_count():
    ga = games.GameAnalyzer(EQ2, 1)
    wide = syntax.parse("E v1/{} (v1=v1)", 2)
    entries = [lambda f: ga.has_winning_strategy(f, 1, 1),
               lambda f: ga.winning_mask(f, 1),
               lambda f: ga.play_out(f, {}, 0),
               lambda f: ga.verify_strategy(f, 1, games.Strategy(1)),
               lambda f: ga.reachable_positions(f, 1),
               ga.truth_value]
    for entry in entries:
        with pytest.raises(IfgError, match="formula has 2 variables"):
            entry(wide)
        with pytest.raises(IfgError, match="index 1 out of range"):
            entry(wide.root)


# -- the move function against the walkers it replaced ---------------------------


def _lowest(space, val, jset):
    """The key of val's ~J class: val with its J digits set to 0."""
    digits = space.decode(val)
    return space.encode([0 if k in jset else d for k, d in enumerate(digits)])


def _ref_play_out(ga, formula, strategies, start):
    node = syntax.checked_root(formula, ga.nvars)
    space = ga.space
    pos, val, eps = (), start, 1
    play = [(pos, val, eps)]
    while True:
        if isinstance(node, syntax.Atomic):
            truth = eval_atomic(ga.structure, node.atom, space.decode(val))
            return play, (eps if truth else 1 - eps)
        elif isinstance(node, syntax.Not):
            node, pos, eps = node.child, pos + (0,), 1 - eps
        elif isinstance(node, syntax.Or):
            mover = strategies.get(eps)
            if mover is None:
                raise IfgError("no strategy for player %d" % eps)
            if mover.move_at(pos, _lowest(space, val, node.jset)) == "left":
                node, pos = node.left, pos + (1,)
            else:
                node, pos = node.right, pos + (2,)
        elif isinstance(node, syntax.Exists):
            mover = strategies.get(eps)
            if mover is None:
                raise IfgError("no strategy for player %d" % eps)
            move = mover.move_at(pos, _lowest(space, val, node.jset))
            val = space.variant_index(val, node.n, move)
            node, pos = node.child, pos + (3,)
        play.append((pos, val, eps))


def _ref_verify_strategy(ga, formula, team, strategy):
    node = syntax.checked_root(formula, ga.nvars)
    space = ga.space
    owner = strategy.owner

    def wins(node, pos, val, eps):
        if isinstance(node, syntax.Atomic):
            truth = eval_atomic(ga.structure, node.atom, space.decode(val))
            return truth == (eps == owner)
        elif isinstance(node, syntax.Not):
            return wins(node.child, pos + (0,), val, 1 - eps)
        elif isinstance(node, syntax.Or):
            if eps == owner:
                move = strategy.move_at(pos, _lowest(space, val, node.jset))
                if move == "left":
                    return wins(node.left, pos + (1,), val, eps)
                return wins(node.right, pos + (2,), val, eps)
            return (wins(node.left, pos + (1,), val, eps)
                    and wins(node.right, pos + (2,), val, eps))
        else:
            if eps == owner:
                b = strategy.move_at(pos, _lowest(space, val, node.jset))
                return wins(node.child, pos + (3,),
                            space.variant_index(val, node.n, b), eps)
            return all(wins(node.child, pos + (3,),
                            space.variant_index(val, node.n, b), eps)
                       for b in range(space.size))

    return all(wins(node, (), val, 1) for val in bits(team))


def _ref_reachable_positions(ga, formula, team):
    node = syntax.checked_root(formula, ga.nvars)
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
            for b in range(ga.space.size):
                walk(node.child, pos + (3,),
                     ga.space.variant_index(val, node.n, b), eps)

    for val in bits(team):
        walk(node, (), val, 1)
    return seen


def _atoms(nvars):
    """Equalities between variables, then R(v0) and S(v0,v1)."""
    V = syntax.Var
    return ([syntax.Eq(V(i), V(j)) for i in range(nvars) for j in range(nvars)]
            + [syntax.Rel("R", (V(0),)), syntax.Rel("S", (V(0), V(1)))])


def _random_node(rng, depth, nvars=2):
    """A random formula node over v0..v(nvars-1) of height at most depth."""
    if depth == 1 or rng.random() < 0.2:
        return syntax.atomic(rng.choice(_atoms(nvars)))
    jset = frozenset(i for i in range(nvars) if rng.random() < 0.4)
    kind = rng.randrange(3)
    if kind == 0:
        return syntax.negate(_random_node(rng, depth - 1, nvars))
    if kind == 1:
        return syntax.disj(jset, _random_node(rng, depth - 1, nvars),
                           _random_node(rng, depth - 1, nvars))
    return syntax.exists(rng.randrange(nvars), jset,
                         _random_node(rng, depth - 1, nvars))


def _random_strategy(ga, formula, owner, rng):
    """Random moves on every class of every \\/ and E position."""
    strategy = games.Strategy(owner)
    for pos, node, _ in formula.subformulas():
        if isinstance(node, (syntax.Or, syntax.Exists)):
            reps = {_lowest(ga.space, val, node.jset)
                    for val in range(ga.space.count)}
            for rep in sorted(reps):
                move = (rng.choice(("left", "right"))
                        if isinstance(node, syntax.Or)
                        else rng.randrange(ga.space.size))
                strategy.add(ga.space, pos, node.jset, rep, move)
    return strategy


def _flipped(ga, strategy, rng):
    """The strategy with its move on one (position, class) changed."""
    flipped = games.Strategy(strategy.owner)
    flipped.moves = dict(strategy.moves)
    key = rng.choice(sorted(flipped.moves))
    move = flipped.moves[key]
    flipped.moves[key] = ({"left": "right", "right": "left"}[move]
                          if move in ("left", "right")
                          else (move + 1) % ga.space.size)
    return flipped


def _redualized(rendered):
    """The old text round trip: each rendered position one step under ~."""
    return "\n".join(line.replace("pos=-", "pos=0", 1)
                     if line.startswith("pos=-")
                     else line.replace("pos=", "pos=0", 1)
                     for line in rendered.splitlines())


def test_moves_match_the_reference_walkers():
    rng = random.Random(10)
    verdicts = set()
    for size, nvars, rounds in ((2, 2, 300), (3, 2, 150)):
        ga = games.GameAnalyzer(signature(size), nvars)
        for _ in range(rounds):
            f = syntax.Formula(_random_node(rng, 4), nvars)
            neg = syntax.Formula(syntax.negate(f.root), nvars)
            team = rng.getrandbits(ga.space.count)
            assert (ga.reachable_positions(f, team)
                    == _ref_reachable_positions(ga, f, team))
            rivals = {p: _random_strategy(ga, f, p, rng) for p in (0, 1)}
            for player in (0, 1):
                won, found = ga.has_winning_strategy(f, team, player)
                checked = [rivals[player]]
                if won and found.moves:
                    checked += [found, _flipped(ga, found, rng)]
                    dual = games.dualize(found)
                    assert ga.verify_strategy(neg, team, dual)
                    assert _ref_verify_strategy(ga, neg, team, dual)
                    assert dual.render() == _redualized(found.render())
                for strategy in checked:
                    got = ga.verify_strategy(f, team, strategy)
                    assert got == _ref_verify_strategy(ga, f, team, strategy)
                    verdicts.add(got)
                    both = {**rivals, player: strategy}
                    for start in bits(team):
                        assert (ga.play_out(f, both, start)
                                == _ref_play_out(ga, f, both, start))
    assert verdicts == {True, False}


def test_play_out_at_one_element_asks_the_mover():
    """At K=1 an E has one move, but its mover still needs a strategy."""
    ga = games.GameAnalyzer(Structure(1), 2)
    for text, player in (("E v1/{} (v0=v1)", 1), ("A v1/{} (v0=v1)", 0)):
        with pytest.raises(IfgError, match="no strategy for player %d"
                           % player):
            ga.play_out(syntax.parse(text, 2), {}, 0)


# -- truth values --------------------------------------------------------------


def test_truth_value_of_bare_nodes():
    ga = games.GameAnalyzer(EQ2, 2)
    assert ga.truth_value(syntax.parse("E v0/{} (v0=v0)", 1).root) == "true"
    with pytest.raises(IfgError, match="not a sentence"):
        ga.truth_value(syntax.parse("v0=v1", 2).root)


def close(node):
    """The sentence A vi/{} ... node, one quantifier per free variable."""
    for i in sorted(node.freevars):
        node = syntax.forall(i, frozenset(), node)
    return node


def _assert_truth_matches_fold(size, nvars, node):
    sentence = close(node)
    x = trump.Evaluator(signature(size), nvars).element(sentence)
    full = Space(size, nvars).full_team
    want = ("true" if x.plus >> full & 1 else
            "false" if x.minus >> full & 1 else "undetermined")
    ga = games.GameAnalyzer(signature(size), nvars)
    assert ga.truth_value(sentence) == want


@settings(max_examples=40, deadline=None)
@given(nodes.filter(lambda n: n.height <= 4))
def test_truth_matches_fold_count8_random(node):
    _assert_truth_matches_fold(2, 3, node)


@settings(max_examples=30, deadline=None)
@given(nodes.filter(lambda n: n.height <= 4 and n.maxindex < 2))
def test_truth_matches_fold_count9_random(node):
    _assert_truth_matches_fold(3, 2, node)


@settings(max_examples=30, deadline=None)
@given(nodes.filter(lambda n: n.height <= 4))
def test_truth_matches_fold_count16_random(node):
    _assert_truth_matches_fold(2, 4, node)


slash_free = st.recursive(
    st.sampled_from(ATOMS).map(syntax.atomic),
    lambda kids: st.one_of(
        kids.map(syntax.negate),
        st.tuples(kids, kids).map(lambda t: syntax.disj(frozenset(), *t)),
        st.tuples(st.integers(0, 2), kids).map(
            lambda t: syntax.exists(t[0], frozenset(), t[1]))),
    max_leaves=5)


@settings(max_examples=40, deadline=None)
@given(slash_free)
def test_truth_matches_classical_count27(node):
    sentence = close(node)
    structure = signature(3)
    team = classical.truth_team(structure, 3, sentence)
    want = "true" if team == Space(3, 3).full_team else "false"
    assert games.GameAnalyzer(structure, 3).truth_value(sentence) == want


# -- shared primitives ---------------------------------------------------------


def _assert_preimages(space, team):
    for n in range(space.nvars):
        pres = space.preimages(team, n)
        assert len(pres) == space.size
        for b, pre in enumerate(pres):
            want = 0
            for v in range(space.count):
                if team >> space.variant_index(v, n, b) & 1:
                    want |= 1 << v
            assert pre == want


def test_preimages_match_variant_index():
    space = Space(2, 2)
    for team in range(1 << space.count):
        _assert_preimages(space, team)
    rng = random.Random(7)
    for size, nvars in ((3, 2), (3, 3), (2, 5)):
        space = Space(size, nvars)
        for _ in range(20):
            _assert_preimages(space, rng.getrandbits(space.count))


def _full_reduction(groups):
    """The maximal keys of all candidates, reduced whatever the grouping."""
    candidates = {}
    for group in groups:
        for w, prov in group:
            candidates.setdefault(w, prov)
    out = []
    for w in sorted(candidates, key=lambda x: (-x.bit_count(), x)):
        if not any(w & ~kept == 0 for kept, _ in out):
            out.append((w, candidates[w]))
    return out


def test_antichain_matches_full_reduction(monkeypatch):
    """Sorting a single group instead of reducing it changes no entry."""
    pool = depth_three_nodes()
    ga = games.GameAnalyzer(REL2, 2)
    team = ga.space.full_team
    want = {}
    with monkeypatch.context() as patch:
        patch.setattr(games, "_maximal", _full_reduction)
        full = games.GameAnalyzer(REL2, 2)
        for node in pool:
            for myturn in (True, False):
                want[node.uid, myturn] = full.antichain(node, myturn, team)
    for node in pool:
        for myturn in (True, False):
            assert ga.antichain(node, myturn, team) == want[node.uid, myturn]


# -- the team-relative search against the per-team recursion -------------------


# (K, N, formula height, most valuations in a team), fixed before any run:
# the recursion tries every function from the team's ~J classes, so at
# count 16 the teams are kept small.
ORACLE_SHAPES = [(2, 2, 5, 4), (3, 2, 4, 9), (2, 3, 5, 8), (2, 4, 5, 5),
                 (4, 2, 4, 3)]


@pytest.mark.parametrize("size,nvars,height,most", ORACLE_SHAPES)
def test_search_from_a_team_matches_the_recursion(size, nvars, height, most):
    """Every verdict of the search from a team equals the recursion's, and
    every winning strategy it extracts, and its dual on the negation,
    passes verify_strategy."""
    rng = random.Random(size * 100 + nvars)
    structure = signature(size)
    ga = games.GameAnalyzer(structure, nvars)
    oracle = TeamSemantics(structure, nvars)
    count = ga.space.count
    verdicts = set()
    for _ in range(100):
        f = syntax.Formula(_random_node(rng, height, nvars), nvars)
        neg = syntax.Formula(syntax.negate(f.root), nvars)
        for _ in range(4):
            members = rng.sample(range(count), rng.randint(1, most))
            team = sum(1 << v for v in members)
            for player in (1, 0):
                won, strategy = ga.has_winning_strategy(f, team, player)
                assert won == oracle.satisfies(f, team, player == 1)
                assert ga.wins(f, team, player) == won
                verdicts.add(won)
                if won:
                    assert ga.verify_strategy(f, team, strategy)
                    assert ga.verify_strategy(neg, team,
                                              games.dualize(strategy))
    assert verdicts == {True, False}
