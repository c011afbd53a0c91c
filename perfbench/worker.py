"""One workload in one fresh, single-threaded process.

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1
    python3 perfbench/worker.py --workload W --setup-only

Prints one JSON object as its last line.  Every operation is timed and
speed-normalised: t = t_raw * R_NOMINAL / r, where r is the mean time of the
calibration kernel run just before and just after the operation.  Set-up is
timed the same way, from the import of `ifg` to the first operation.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time

import inputs
import oracle
from layers import Tracer

# the kernel: integer arithmetic on locals, no containers, collector paused
KERNEL_STEPS = 6000
R_NOMINAL = 0.001  # seconds; about the kernel's time on a 2-core x86 sandbox


def kernel():
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    x = 1
    i = 0
    while i < KERNEL_STEPS:
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        i += 1
    took = time.perf_counter() - start
    if enabled:
        gc.enable()
    return took


kernel()  # the first run in a fresh process is cold
FIRST_R = kernel()
START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if not os.path.isdir(os.path.join(ROOT, "src", "ifg")):
    sys.exit("no src/ifg beside perfbench/: nothing to measure")
sys.path.insert(0, os.path.join(ROOT, "src"))

import ifg.cli  # noqa: E402  (set-up is timed from here)
from ifg import algebra, finlat, games, model, syntax, trump  # noqa: E402

# rounds of the traced run, per 10 seconds of --seconds
TRACE_ROUNDS = {"meanings": 60, "sentences": 60, "algebras": 6, "laws": 2}
CHECK_SAMPLES = 4  # brute-force operator samples per algebra result or pool


class Failed(Exception):
    """An operation raised or exited with a code other than 0."""


class Wrong(Exception):
    """An operation's output disagrees with the benchmark's checks."""


class Bench:
    def __init__(self, workload, seed, workdir, tracer=None):
        self.workdir = workdir
        self.tracer = tracer
        self.times = []       # normalised seconds per operation
        self.raw = []         # raw seconds per operation
        self.rs = []          # r per operation
        self.attempted = 0
        self.failed = 0
        self.failures = []    # messages of failed operations
        self.wrong = []       # messages of wrong outputs
        self.digest = hashlib.sha256()
        self.check = True
        self.r_before = None
        self.rng = random.Random("check:%s:%d" % (workload, seed))

    # -- timing -----------------------------------------------------------------

    def dirty(self):
        """Work other than an operation ran: the next one re-measures r."""
        self.r_before = None

    def op(self, fn):
        """Run one operation; returns its result or raises Failed."""
        if self.r_before is None:
            self.r_before = kernel()
        tracer = self.tracer
        if tracer is not None:
            tracer.begin(self.attempted)
        self.attempted += 1
        error = None
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # an operation may fail; it is counted
            error = exc
        took = time.perf_counter() - start
        r_after = kernel()
        r = (self.r_before + r_after) / 2.0
        self.r_before = r_after
        factor = R_NOMINAL / r
        if tracer is not None:
            tracer.end(factor)
        self.times.append(took * factor)
        self.raw.append(took)
        self.rs.append(r)
        if error is not None:
            self.failed += 1
            raise Failed("%s: %r" % (getattr(fn, "label", "op"), error))
        self.digest.update(repr(result).encode())
        return result

    def cli(self, argv):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = ifg.cli.main(argv)
            if code != 0:
                raise RuntimeError("exit %s: %s" % (code, err.getvalue().strip()))
            return out.getvalue()

        run.label = "ifg " + " ".join(argv)
        text = self.op(run)
        if self.tracer is not None:
            self.tracer.stdout_bytes += len(text.encode())
        return text

    # -- tasks ------------------------------------------------------------------

    def run_task(self, task):
        try:
            getattr(self, "task_" + task["kind"].replace("-", "_"))(task)
        except Failed as exc:
            self.failures.append(str(exc))
        except Wrong as exc:
            self.wrong.append(str(exc))
        except (ValueError, KeyError) as exc:  # output the oracles cannot read
            self.wrong.append("unreadable output (%r) on %s"
                              % (exc, _describe(task)))
        finally:
            self.dirty()

    def expect(self, cond, what, task):
        if self.check and not cond:
            self.dirty()
            raise Wrong("%s on %s" % (what, _describe(task)))

    def task_meaning(self, task):
        size, nvars, f = task["K"], task["N"], task["ast"]
        text = self.cli(["meaning", "-s", inputs.STRUCTURE_FILES[size],
                         "-f", task["text"], "-n", str(nvars)])
        if not self.check:
            return
        self.dirty()
        spec = inputs.STRUCTURES[size]
        plus, minus = oracle.parse_meaning(text.rstrip("\n"), size)
        self.expect(plus & 1 and minus & 1, "empty team missing", task)
        self.expect(plus & minus == 1, "plus and minus overlap", task)
        self.expect(inputs.is_downset(plus) and inputs.is_downset(minus),
                    "not downward closed", task)
        formula = syntax.parse(task["text"], nvars)
        analyzer = games.GameAnalyzer(self.structures[size], nvars)
        self.expect((plus, minus) == (analyzer.winning_mask(formula.root, 1),
                                      analyzer.winning_mask(formula.root, 0)),
                    "meaning differs from the game-semantic meaning", task)
        if inputs.is_slash_free(f):
            self.expect((plus, minus) == oracle.tarski_meaning(spec, nvars, f),
                        "meaning differs from the Tarski oracle", task)
        if size ** nvars == 4:
            self.expect((plus, minus) == oracle.team_meaning(spec, nvars, f),
                        "meaning differs from the team-semantics oracle", task)

    def task_sentence(self, task):
        size, nvars, f = task["K"], task["N"], task["ast"]
        base = ["-s", inputs.STRUCTURE_FILES[size], "-f", task["text"],
                "-n", str(nvars)]
        team = inputs.full_team_text(size, nvars)
        truth = self.cli(["truth"] + base).strip()
        games_out = [self.cli(["game"] + base + ["--team", team, "--player",
                                                  str(p)]) for p in (1, 0)]
        if not self.check:
            return
        self.dirty()
        spec = inputs.STRUCTURES[size]
        full = (1 << size ** nvars) - 1
        won = {}
        for player, text in zip((1, 0), games_out):
            won[player], table = oracle.parse_game(text, player)
            if won[player]:
                self.expect(oracle.strategy_wins(spec, nvars, f, full, player,
                                                 table),
                            "player %d strategy loses a play" % player, task)
        want = {(True, False): "true", (False, True): "false",
                (False, False): "undetermined"}.get((won[1], won[0]))
        self.expect(truth == want, "truth %r but game says %r" % (truth, want),
                    task)
        if size ** nvars == 4:
            self.expect(truth == oracle.truth_value(spec, nvars, f),
                        "truth differs from the team-semantics oracle", task)

    def task_algebra_gen(self, task):
        spec = task["spec"]
        size = spec["size"]
        path = os.path.join(self.workdir, "s%d.ifgs" % self.attempted)
        with open(path, "w") as handle:
            handle.write(inputs.structure_text(spec))
        text = self.cli(["algebra-gen", "-s", path, "-n", "1"])
        self.dirty()
        elements = oracle.parse_dump(text, size)
        omega = (1, 1)
        self.expect((omega in elements) == oracle.omega_expected(spec, 1),
                    "omega membership differs from the criterion", task)
        self.check_elements(size, 1, elements, task)
        self.reduct(size, [algebra.Element(p, m) for p, m in elements], task)

    def task_closure(self, task):
        size = task["K"]
        gens = [algebra.Element(p, m) for p, m in task["gens"]]

        def run():
            return algebra.generate_subalgebra(
                algebra.AlgebraContext(size, 1), gens)

        run.label = "generate_subalgebra"
        elements = self.op(run)
        self.dirty()
        pairs = [(x.plus, x.minus) for x in elements]
        self.expect(all(g in pairs for g in task["gens"]),
                    "a generator is missing", task)
        self.check_elements(size, 1, pairs, task)
        self.reduct(size, elements, task)

    def task_omega(self, task):
        gens = [algebra.Element(p, m) for p, m in task["gens"]]

        def run():
            ctx = algebra.AlgebraContext(2, 2)
            return algebra.generate_subalgebra(ctx, gens, target=ctx.omega)

        run.label = "generate_subalgebra target=omega"
        found = self.op(run)
        spec = {"size": 2, "constants": {}, "relations": {}}
        self.expect(found == oracle.omega_expected(spec, 2),
                    "omega membership differs from the criterion", task)

    def task_laws(self, task):
        size, nvars = task["K"], task["N"]
        ctx = algebra.AlgebraContext(size, nvars)
        pool = [algebra.Element(p, m) for p, m in task["pool"]]
        for name in inputs.LAW_NAMES:
            def run(name=name):
                return algebra.check_law(name, ctx, pool)

            run.label = "check_law %s" % name
            detail = self.op(run)
            if self.check and (detail is None) != algebra.law_expected(name):
                self.dirty()
                raise Wrong("law %s: %s on %s" % (
                    name, detail or "holds", _describe(task)))
        if self.check:
            self.dirty()
            self.check_ops(ctx, size, nvars, list(task["pool"]), task)

    # -- checks ------------------------------------------------------------------

    def check_elements(self, size, nvars, elements, task):
        if not self.check:
            return
        self.expect(all(oracle.is_double_suit(x) for x in elements),
                    "an element is not a double suit", task)
        ctx = algebra.AlgebraContext(size, nvars)
        seen = set(elements)
        for name, args, want in oracle.sample_ops(
                self.rng, size, nvars, elements, CHECK_SAMPLES):
            self.expect(want in seen, "%s leaves the algebra" % name, task)
        self.check_ops(ctx, size, nvars, elements, task)

    def check_ops(self, ctx, size, nvars, elements, task):
        for name, args, want in oracle.sample_ops(
                self.rng, size, nvars, elements, CHECK_SAMPLES):
            if name == "cyl":
                n, jset, x = args
                got = ctx.cyl(n, jset, algebra.Element(*x))
            else:
                jset, x, y = args
                got = getattr(ctx, name)(jset, algebra.Element(*x),
                                         algebra.Element(*y))
            self.expect((got.plus, got.minus) == want,
                        "%s differs from brute force" % name, task)

    def reduct(self, size, elements, task):
        """The reduct of a one-dimensional result, as one operation."""
        def run():
            ctx = algebra.AlgebraContext(size, 1)
            alg, order = finlat.monadic_reduct(ctx, elements, validate=False)
            tables = (alg.bottom, alg.top, alg.join, alg.meet, alg.neg,
                      alg.nabla)
            return (tables, order, finlat.check_quantifier(alg),
                    finlat.classify_quantifier_type(alg),
                    finlat.check_variety_markers(alg))

        run.label = "monadic_reduct"
        tables, order, failed, kind, markers = self.op(run)
        if not self.check:
            return
        self.dirty()
        join, nabla = tables[2], tables[5]
        mine = oracle.reduct_failures(*tables)
        self.expect(not mine, "reduct breaks %s" % ",".join(mine), task)
        self.expect(not failed, "check_quantifier reports %s" % failed, task)
        self.expect(kind == oracle.quantifier_type(*tables),
                    "quantifier type %r" % (kind,), task)
        self.expect(markers["distributive"] and markers["kleene"],
                    "variety markers %r" % markers, task)
        pairs = [(x.plus, x.minus) for x in order]
        index = {x: i for i, x in enumerate(pairs)}
        full = frozenset({0})
        for _ in range(CHECK_SAMPLES):
            a, b = self.rng.randrange(len(pairs)), self.rng.randrange(len(pairs))
            self.expect(index.get(oracle.add(size, 1, full, pairs[a], pairs[b]))
                        == join[a][b], "reduct join table", task)
            self.expect(index.get(oracle.cyl(size, 1, 0, full, pairs[a]))
                        == nabla[a], "reduct quantifier table", task)

    # -- the run -----------------------------------------------------------------

    def run(self, rounds, seconds=None, count=None):
        """Whole rounds until seconds of wall time have passed, or count
        rounds."""
        started = time.perf_counter()
        done = 0
        for tasks in rounds:
            for task in tasks:
                self.run_task(task)
            done += 1
            if count is not None:
                if done >= count:
                    break
            elif time.perf_counter() - started >= seconds:
                break
        return done


def _describe(task):
    if "text" in task:
        return "%s K=%d N=%d %r" % (task["kind"], task["K"], task["N"],
                                    task["text"])
    return "%s %r" % (task["kind"], {k: v for k, v in task.items()
                                     if k != "kind"})


def _quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)  # operations name the structure files relative to it

    # set-up: the package is imported above; load the structure files and,
    # for the algebra workloads, build a context per (K, N) with its
    # constants and diagonals
    bench = Bench(args.workload, args.seed, None)
    bench.structures = {k: model.Structure.from_file(os.path.join(ROOT, path))
                        for k, path in inputs.STRUCTURE_FILES.items()}
    if args.workload in ("algebras", "laws"):
        for size, nvars in ((2, 1), (3, 1), (2, 2)):
            ctx = algebra.AlgebraContext(size, nvars)
            for i in range(nvars):
                for j in range(nvars):
                    ctx.diag(i, j)
    setup_end = time.perf_counter()
    last_r = kernel()
    setup_s = (setup_end - START) * R_NOMINAL / ((FIRST_R + last_r) / 2.0)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    problems = oracle.self_test()
    if problems:
        print("oracle self-test failed: %s" % "; ".join(problems),
              file=sys.stderr)
        return 1
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    workdir = os.path.join(outdir, "work-%s-%d-%d" % (args.workload, args.seed,
                                                      os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    bench.workdir = workdir
    try:
        if args.trace:
            report = traced(bench, args, outdir)
        else:
            bench.run(inputs.Rounds(args.workload, args.seed), args.seconds)
            report = untraced(bench)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in bench.failures[:3] + bench.wrong[:5]:
        print(line, file=sys.stderr)
    report.update(setup_s=setup_s, attempted=bench.attempted,
                  failed=bench.failed, correct=not bench.wrong,
                  raw_s=sum(bench.raw), norm_s=sum(bench.times),
                  r_median=statistics.median(bench.rs),
                  digest=bench.digest.hexdigest()[:16])
    print(json.dumps(report))
    return 0


def untraced(bench):
    times = bench.times
    return {"metrics": {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(times) * 1000.0,
        "op_p90_ms": _quantile(times, 0.9) * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }}


def traced(bench, args, outdir):
    """Untraced, then traced, over the same fixed rounds."""
    count = max(1, round(TRACE_ROUNDS[args.workload] * args.seconds / 10.0))
    bench.run(inputs.Rounds(args.workload, args.seed), count=count)
    plain = sum(bench.times)
    digest = bench.digest.hexdigest()
    tracer = Tracer()
    tracer.install({"cli": ifg.cli, "syntax": syntax, "trump": trump,
                    "games": games, "algebra": algebra, "finlat": finlat,
                    "model": model})
    second = Bench(args.workload, args.seed, bench.workdir, tracer)
    second.structures = bench.structures
    second.check = False
    second.run(inputs.Rounds(args.workload, args.seed), count=count)
    if second.digest.hexdigest() != digest:
        bench.wrong.append("wrong: traced outputs differ from untraced ones")
    overhead = (sum(second.times) / plain - 1.0) * 100.0
    for name in tracer.missing:
        print("trace: no public function %s" % name, file=sys.stderr)
    tracer.dump(os.path.join(outdir, "spans-%s-%d.jsonl" % (args.workload,
                                                            args.seed)),
                {"workload": args.workload, "seed": args.seed,
                 "rounds": count, "untraced_s": plain,
                 "traced_s": sum(second.times)})
    return {"metrics": tracer.metrics(overhead), "rounds": count}


if __name__ == "__main__":
    sys.exit(main())
