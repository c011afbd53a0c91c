import random

import pytest
from hypothesis import given, settings, strategies as st

import classical
from ifg import syntax, trump, games
from ifg.errors import IfgError
from ifg.model import Structure, Space, bits

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
    moves = {cid: move for (pos, cid), move in strategy.moves.items()
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
    ev = trump.Evaluator(EQ2, 2)
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
    assert twice.moves == {((0, 0) + pos, cid): move
                           for (pos, cid), move in strategy.moves.items()}


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
    for cid in range(ga.space.count):
        chooser.add(ga.space, (0,), frozenset(), cid, 1)
    play, winner = ga.play_out(f, {0: chooser}, 0)
    assert winner == 1  # v0=v0 holds whatever the falsifier picks
    assert any(eps == 0 for _, _, eps in play)


def test_play_out_requires_a_strategy_for_the_mover():
    ga = games.GameAnalyzer(EQ2, 2)
    f = syntax.parse("E v1/{} (v0=v1)", 2)
    with pytest.raises(IfgError):
        ga.play_out(f, {}, 0)


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
    want = {}
    with monkeypatch.context() as patch:
        patch.setattr(games, "_maximal", _full_reduction)
        full = games.GameAnalyzer(REL2, 2)
        for node in pool:
            for myturn in (True, False):
                want[node.uid, myturn] = full.antichain(node, myturn)
    for node in pool:
        for myturn in (True, False):
            assert ga.antichain(node, myturn) == want[node.uid, myturn]
