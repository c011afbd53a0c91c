import pytest

from ifg import syntax, trump, games
from ifg.errors import IfgError
from ifg.model import Structure, bits

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
               lambda f: ga.reachable_positions(f, 1)]
    for entry in entries:
        with pytest.raises(IfgError, match="formula has 2 variables"):
            entry(wide)
        with pytest.raises(IfgError, match="index 1 out of range"):
            entry(wide.root)
