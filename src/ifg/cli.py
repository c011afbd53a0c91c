"""Command-line entry point.

Subcommands: eval, truth, game, meaning, algebra-gen, laws, monadic, embed,
selftest.  Exit codes: 0 success, 1 invalid input, 2 guard exceeded,
3 selftest failure.

Each command is one process, and on the small inputs it answers, importing
the package is most of its cost.  So this module imports at load time only
what building the argument parser needs, and each cmd_* imports the modules
it runs: truth, game and eval the game search (games), meaning the fold
(trump, which brings algebra and downsets), algebra-gen and laws the set
algebra, monadic and embed the lattice lab (finlat), selftest the example
suite.  eval answers + when player 1 (the verifier) wins from the team and
- when player 0 does.
"""

import argparse
import functools
import sys

from .errors import IfgError, GuardExceeded


class _ArgumentParser(argparse.ArgumentParser):
    """argparse parser that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _add_formula_options(sub, team=False, player=False):
    sub.add_argument("-s", "--structure", required=True, metavar="FILE",
                     help="structure file")
    sub.add_argument("-f", "--formula", required=True, metavar="STR",
                     help="formula text")
    sub.add_argument("-n", "--nvars", required=True, type=int, metavar="N",
                     help="number of variables")
    if team:
        sub.add_argument("--team", default="", metavar="CSV",
                         help="team as comma-separated digit strings")
    if player:
        sub.add_argument("--player", type=int, choices=(0, 1), default=1,
                         help="player to search a winning strategy for")


def build_parser():
    parser = _ArgumentParser(prog="ifg")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_ArgumentParser)

    sub = subs.add_parser("eval", help="team satisfaction for both signs")
    _add_formula_options(sub, team=True)
    sub.set_defaults(func=cmd_eval)

    sub = subs.add_parser("truth", help="three-valued truth of a sentence")
    _add_formula_options(sub)
    sub.set_defaults(func=cmd_truth)

    sub = subs.add_parser("game", help="winning-strategy search")
    _add_formula_options(sub, team=True, player=True)
    sub.set_defaults(func=cmd_game)

    sub = subs.add_parser("meaning", help="winning and losing teams of a formula")
    _add_formula_options(sub)
    sub.set_defaults(func=cmd_meaning)

    sub = subs.add_parser("algebra-gen", help="algebra generated by the atomic meanings")
    sub.add_argument("-s", "--structure", required=True, metavar="FILE")
    sub.add_argument("-n", "--nvars", required=True, type=int, metavar="N")
    sub.add_argument("--cap", type=int,
                     help="element cap for the generated algebra")
    sub.set_defaults(func=cmd_algebra_gen)

    sub = subs.add_parser("laws", help="check the algebraic law registry")
    sub.add_argument("--law", metavar="ID", help="check one law only")
    sub.set_defaults(func=cmd_laws)

    sub = subs.add_parser("monadic", help="analyze a finite algebra file")
    sub.add_argument("action", choices=("classify", "congruences"))
    sub.add_argument("file", metavar="FILE")
    sub.set_defaults(func=cmd_monadic)

    sub = subs.add_parser("embed", help="embed a monadic Kleene algebra")
    sub.add_argument("file", metavar="FILE")
    sub.set_defaults(func=cmd_embed)

    sub = subs.add_parser("selftest", help="run the built-in example suite")
    sub.set_defaults(func=cmd_selftest)

    return parser


def _load(args):
    from . import syntax
    from .model import Structure
    structure = Structure.from_file(args.structure)
    formula = syntax.parse(args.formula, args.nvars)
    return structure, formula


def cmd_eval(args):
    from . import games
    structure, formula = _load(args)
    analyzer = games.GameAnalyzer(structure, args.nvars)
    team = analyzer.space.parse_team(args.team)
    verdicts = [analyzer.wins(formula, team, player) for player in (1, 0)]
    for sign, won in zip("+-", verdicts):
        print("%s %s" % (sign, "yes" if won else "no"))
    return 0


def cmd_truth(args):
    from . import games
    structure, formula = _load(args)
    print(games.GameAnalyzer(structure, args.nvars).truth_value(formula))
    return 0


def cmd_game(args):
    from . import games
    structure, formula = _load(args)
    analyzer = games.GameAnalyzer(structure, args.nvars)
    team = analyzer.space.parse_team(args.team)
    won, strategy = analyzer.has_winning_strategy(formula, team, args.player)
    if won:
        print("winning strategy for player %d" % args.player)
        if strategy.moves:
            print(strategy.render())
    else:
        print("no winning strategy for player %d" % args.player)
    return 0


def cmd_meaning(args):
    from . import trump
    structure, formula = _load(args)
    print(trump.meaning(structure, formula).render())
    return 0


def cmd_algebra_gen(args):
    from . import algebra
    from .model import Structure
    cap = algebra.GENERATION_CAP if args.cap is None else args.cap
    if cap < 0:
        raise IfgError("cap must be >= 0")
    structure = Structure.from_file(args.structure)
    elements = algebra.cyls_of(structure, args.nvars, cap)
    ctx = algebra.AlgebraContext(structure.size, args.nvars)
    print(ctx.dump(elements))
    return 0


def _default_pool(ctx):
    d01 = ctx.diag(0, 1)
    spread = ctx.add(ctx.full_j, d01, ctx.neg(d01))
    f0 = ctx.flat(ctx.space.parse_team("00,01"))
    f1 = ctx.flat(ctx.space.parse_team("10,11"))
    return [ctx.zero, ctx.one, ctx.omega, ctx.mho, d01, ctx.diag(0, 0),
            ctx.neg(d01), spread, f0, f1, ctx.add(ctx.full_j, f0, f1)]


def _mixed_pool(ctx):
    flats = [ctx.flat(1 << v) for v in range(ctx.space.count)]
    return [ctx.zero, ctx.one, ctx.omega] + flats


_MIXED_LAWS = ("associativity-mixed-eq",)


def cmd_laws(args):
    from . import algebra
    names = [args.law] if args.law else algebra.law_names()
    main_ctx = algebra.AlgebraContext(2, 2)
    main_pool = _default_pool(main_ctx)
    mixed_ctx = algebra.AlgebraContext(3, 1)
    mixed_pool = _mixed_pool(mixed_ctx)
    failures = 0
    for name in names:
        if name in _MIXED_LAWS:
            detail = algebra.check_law(name, mixed_ctx, mixed_pool)
        else:
            detail = algebra.check_law(name, main_ctx, main_pool)
        holds = detail is None
        expected = algebra.law_expected(name)
        line = "%s: %s, expected %s" % (name,
                                        "holds" if holds else "fails",
                                        "holds" if expected else "fails")
        if detail is not None:
            line += "  [%s]" % detail
        if holds != expected:
            line += "  ** MISMATCH"
            failures += 1
        print(line)
    return 1 if failures else 0


def cmd_monadic(args):
    from . import finlat
    alg = finlat.FinAlgebra.from_file(args.file)
    if args.action == "classify":
        if alg.nabla is None:
            raise IfgError("algebra file has no quantifier table")
        print("carrier %d" % alg.size)
        failed = finlat.check_quantifier(alg)
        print("axioms: %s" % ("pass" if not failed else
                              "fail " + ",".join(failed)))
        kind, data = finlat.classify_quantifier_type(alg)
        if kind == "type1":
            print("type: type1 center=%d" % data)
        elif kind == "type2":
            print("type: type2 fixed=%d,%d" % data)
        elif kind == "type0":
            print("type: type0")
        else:
            print("type: other")
        markers = finlat.check_variety_markers(alg)
        for key in sorted(markers):
            print("%s: %s" % (key, "yes" if markers[key] else "no"))
    else:
        parts = finlat.congruences(alg)
        print("count %d" % len(parts))
        print("simple: %s" % ("yes" if finlat.is_simple(alg) else "no"))
        print("subdirectly_irreducible: %s"
              % ("yes" if finlat.is_subdirectly_irreducible(alg) else "no"))
        for part in parts:
            blocks = {}
            for i, c in enumerate(part):
                blocks.setdefault(c, []).append(i)
            print(" ".join("{%s}" % ",".join(str(i) for i in block)
                           for block in blocks.values()))
    return 0


def cmd_embed(args):
    from . import finlat
    alg = finlat.FinAlgebra.from_file(args.file)
    ctx, mapping = finlat.embed_monadic_kleene(alg)
    print("base %d" % ctx.size)
    for x in range(alg.size):
        print("h(%d) = %s" % (x, ctx.render(mapping[x])))
    return 0


def cmd_selftest(args):
    from . import selftest
    results = selftest.run()
    failures = 0
    for name, ok in results:
        print("%s: %s" % (name, "pass" if ok else "FAIL"))
        if not ok:
            failures += 1
    print("%d/%d passed" % (len(results) - failures, len(results)))
    return 3 if failures else 0


@functools.lru_cache(maxsize=None)
def _parser():
    """The parser of main, built once per process."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except GuardExceeded as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except IfgError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
