"""
Benchmark of the growthdiag CLI.  Run from the repository root:

  python3 perfbench/run.py --workload growth-fill --seed 1 --seconds 30 --trace 0

Every op is a fresh `python -m growthdiagrams.cli ...` process with
PYTHONPATH=src, as a user runs it, so every op starts with cold caches.
One closed-loop client runs the ops of the workload one after another
and checks each output.  The ops are a fixed list: the whole cycles that
took about --seconds when the benchmark was defined.  With --trace 0 it
prints the end-to-end metrics; with --trace 1 each op runs once plain and
once in a traced child (cycles with a third of their random inputs or
repeats), and it prints the per-layer metrics and the tracing overhead.  The last line of stdout is
one JSON object; the metric names and units are those of BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import functools
import gzip
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads
from spans import CASES, self_times

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_RUNS = 15
OP_TIMEOUT_S = 30.0
# a run stops early when the program has slowed down badly, so that it ends
# within its nominal time + HARD_STOP_S + OP_TIMEOUT_S
HARD_STOP_S = 60.0
# a traced op runs up to three processes (plain, traced, replay)
TRACE_COST = 3
TAIL_BEYOND = 10


class SetupError(RuntimeError):
    """The benchmark cannot produce a result, e.g. the package does not import."""


@dataclass
class Proc:
    seconds: float
    code: int
    rss_mb: float
    timed_out: bool
    stdout: str
    stderr: str


@dataclass
class OpResult:
    op: workloads.Op
    seconds: float
    rss_mb: float
    cause: str | None = None   # None, "exit", "timeout" or "check"
    reason: str = ""
    known: bool = False        # the known defect the workloads keep (see known_failure)
    out_bytes: int = 0
    trace: dict = field(default_factory=dict)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Launcher:
    """The small process that spawns every op (see launcher.py).  It runs
    in its own session, so closing the launcher stops all it started."""

    def __init__(self):
        OUT.mkdir(parents=True, exist_ok=True)
        self._proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT, start_new_session=True,
        )

    def spawn(self, argv: list[str]) -> Proc:
        """Run argv to completion; it is timed from spawn to reap, and its
        peak RSS comes from os.wait4."""
        out, err = OUT / "stdout.tmp", OUT / "stderr.tmp"
        request = {"argv": argv, "stdout": str(out), "stderr": str(err), "timeout": OP_TIMEOUT_S}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise SetupError(f"the launcher exited while running {argv[:4]}")
        answer = json.loads(line)
        return Proc(
            seconds=answer["end"] - answer["start"],
            code=answer["code"],
            rss_mb=answer["rss_kb"] / 1024.0,
            timed_out=answer["timed_out"],
            stdout=out.read_text(encoding="utf-8", errors="replace"),
            stderr=err.read_text(encoding="utf-8", errors="replace"),
        )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._proc.stdin.close()
        if exc_type is not None:
            # an op may still be running: stop the launcher's whole session
            try:
                os.killpg(self._proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self._proc.wait()
        self._proc.stdout.close()


def cli_argv(op: workloads.Op) -> list[str]:
    return [sys.executable, "-m", "growthdiagrams.cli", *op.args]


def known_failure(op: workloads.Op, proc: Proc) -> bool:
    """Whether a failed op is the one known defect the workloads keep:
    BST insertion recurses once per tree level, so on identity and reverse
    input at n=2000 it dies with RecursionError (exit 1)."""
    last = proc.stderr.rstrip().rpartition("\n")[2]
    return (
        op.args[:2] in (("insert", "bst-left"), ("insert", "sylvester"))
        and op.label.rpartition(" ")[2] in ("identity", "reverse")
        and proc.code == 1
        and last.startswith("RecursionError:")
    )


def run_op(launcher: Launcher, op: workloads.Op) -> tuple[OpResult, Proc]:
    """One op, untraced, with its output checked.  A non-zero exit is a
    failure; its output is still checked, for the reason."""
    proc = launcher.spawn(cli_argv(op))
    result = OpResult(op, proc.seconds, proc.rss_mb, out_bytes=len(proc.stdout.encode()))
    if proc.timed_out:
        result.cause, result.reason = "timeout", f"killed after {OP_TIMEOUT_S:.0f} s"
    elif proc.code != 0:
        reason = checks.check(op, proc.stdout) if proc.stdout.strip() else None
        last = proc.stderr.rstrip().rpartition("\n")[2]
        result.cause, result.known = "exit", known_failure(op, proc)
        result.reason = f"exit code {proc.code}: {reason or last or 'no output'}"
    else:
        reason = checks.check(op, proc.stdout)
        if reason:
            result.cause, result.reason = "check", reason
    return result, proc


def run_traced_op(launcher: Launcher, op: workloads.Op) -> OpResult:
    """The op plain, then in a traced child, then (for growth diagrams) a
    replay of every square; the result carries the plain timing and the
    trace.  A traced output that differs from the plain one fails the op."""
    plain, plain_proc = run_op(launcher, op)

    def fail(reason: str) -> None:
        if plain.cause is None:
            plain.cause, plain.reason = "check", reason

    trace_path, fills_path, replay_path = OUT / "trace.tmp", OUT / "fills.tmp", OUT / "replay.tmp"
    child = [sys.executable, str(ROOT / "perfbench" / "child.py")]
    trace_path.unlink(missing_ok=True)
    traced = launcher.spawn(child + ["trace", str(trace_path), "--", *op.args])
    lines = trace_path.read_text(encoding="utf-8").splitlines() if trace_path.is_file() else []
    if lines:
        trace = json.loads(lines[0])
    else:
        fail(f"traced child wrote no trace (exit {traced.code})")
        trace = {"spans": [], "aggregates": [], "caches": {}, "cases": {}, "fills": [], "main_end": 0.0}
    post_end = json.loads(lines[1])["post_end"] if len(lines) > 1 else trace["main_end"]
    # the child's bookkeeping after the run is not tracing overhead
    trace["traced_seconds"] = traced.seconds - (post_end - trace["main_end"])
    trace["plain_seconds"] = plain.seconds
    if (traced.code, traced.stdout) != (plain_proc.code, plain_proc.stdout):
        fail("traced output differs from the plain run")
    if trace["fills"]:
        fills_path.write_text(json.dumps(trace["fills"]), encoding="utf-8")
        replay_path.unlink(missing_ok=True)
        replayed = launcher.spawn(child + ["replay", str(fills_path), str(replay_path)])
        if replayed.code == 0:
            trace["replay"] = json.loads(replay_path.read_text(encoding="utf-8"))
            if trace["replay"]["counts"] and trace["replay"]["counts"] != trace["cases"]:
                fail("replayed local-rule cases differ from the grid")
        else:
            fail(f"replay child exited {replayed.code}")
    del trace["fills"]
    plain.trace = trace
    return plain


def measure_setup(launcher: Launcher) -> list[float]:
    """Seconds to start the interpreter and import the CLI, after one
    untimed import that writes the bytecode caches."""
    argv = [sys.executable, "-c", "import growthdiagrams.cli"]
    times = []
    for k in range(SETUP_RUNS + 1):
        proc = launcher.spawn(argv)
        if proc.code != 0:
            raise SetupError(f"`import growthdiagrams.cli` with PYTHONPATH={ROOT / 'src'} exited {proc.code}")
        if k:
            times.append(proc.seconds)
    return times


def run_cycles(workload: str, seed: int, cycles: int, one, share: float = 1.0) -> list[OpResult]:
    """Run the first `cycles` cycles of the workload, one op after another.
    No op starts later than HARD_STOP_S after the nominal end."""
    results: list[OpResult] = []
    deadline = time.perf_counter() + cycles * workloads.NOMINAL_CYCLE_S[workload] + HARD_STOP_S
    for cycle in itertools.islice(workloads.cycles(workload, seed, share), cycles):
        for op in cycle:
            if results and time.perf_counter() > deadline:
                return results
            results.append(one(op))
    return results


def tail(times: list[float]) -> tuple[float, int, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    that percentile and the samples beyond it; the maximum when there are
    too few samples."""
    ordered = sorted(times)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100, 0
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], (100 * (k + 1)) // len(ordered), TAIL_BEYOND


def end_to_end(results: list[OpResult], setup: list[float]) -> tuple[dict, list[str]]:
    ok = [r.seconds for r in results if r.cause is None]
    if not ok:
        raise SetupError("no op succeeded")
    wall = sum(r.seconds for r in results)
    causes = Counter(r.cause for r in results if r.cause)
    known = sum(r.known for r in results)
    tail_s, tail_pct, beyond = tail(ok)
    values = {
        "ops_per_s": len(ok) / wall,
        "op_p50_s": statistics.median(ok),
        "op_tail_s": tail_s,
        "peak_rss_mb": statistics.fmean(r.rss_mb for r in results),
        "setup_s": statistics.median(setup),
    }
    notes = [
        f"ops_per_s: {len(ok)} successful ops in {wall:.3f} s of op time",
        f"op_tail_s: p{tail_pct} of {len(ok)} successful ops, {beyond} beyond it",
        f"failed_share: {len(results) - len(ok)}/{len(results)} = "
        f"{(len(results) - len(ok)) / len(results):.4f} share "
        f"(exit {causes['exit']}, of them {known} known RecursionError; "
        f"timeout {causes['timeout']}, check {causes['check']})",
        f"peak_rss_mb: mean over {len(results)} ops of each op's ru_maxrss; "
        f"largest {max(r.rss_mb for r in results):.1f} MB",
        f"setup_s: median of {len(setup)} imports",
    ]
    return values, notes


def per_layer(results: list[OpResult], declared: list[str]) -> tuple[dict, list[str]]:
    """Per-op means over the traced ops of each declared per-layer metric.

    NAME_s[.rankK] is the self time of the spans named NAME[.rankK];
    LAYER.self_s the self time of all spans of that layer; cache metrics
    are read from cache_info() at the end of each op and are absent when
    the cache is gone."""
    ops = len(results)
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    caches: dict[str, float] = defaultdict(float)
    cases: Counter = Counter()
    rule: dict[str, float] = defaultdict(float)
    has_replay = False
    for r in results:
        s, c = self_times(r.trace)
        for name, v in s.items():
            seconds[name] += v
        for name, v in c.items():
            calls[name] += v
        for fn, info in r.trace["caches"].items():
            for key, v in info.items():
                caches[f"{fn}.{key}"] += v
        cases.update(r.trace["cases"])
        replay = r.trace.get("replay", {})
        has_replay |= bool(replay.get("counts"))
        for case, v in replay.get("seconds", {}).items():
            rule[case] += v
    plain = sum(r.trace["plain_seconds"] for r in results)
    traced = sum(r.trace["traced_seconds"] for r in results)
    derived = {
        "cli.output_bytes": sum(r.out_bytes for r in results),
        "growth.rule_s": sum(rule.values()),
        "growth.rule_case_f_s": rule["f"],
        "trace.overhead_s": traced - plain,
    }
    derived.update({f"growth.case_{c}": cases[c] for c in CASES})
    values = {}
    absent = []
    for name in declared:
        layer, _, rest = name.partition(".")
        if name == "trace.overhead_pct":
            values[name] = 100.0 * (traced - plain) / plain
        elif name in derived:
            values[name] = derived[name] / ops
        elif name in caches:
            values[name] = caches[name] / ops
        elif rest.count(".") == 1 and rest.split(".")[1] in ("hits", "misses", "currsize"):
            absent.append(name)
        elif rest == "self_s":
            values[name] = sum(v for k, v in seconds.items() if k.startswith(layer + ".")) / ops
        elif rest.endswith("_per_call_s"):
            span = f"{layer}.{rest[: -len('_per_call_s')]}"
            values[name] = seconds[span] / calls[span] if calls[span] else 0.0
        else:
            what, _, rank = rest.partition(".")
            if not what.endswith("_s"):
                raise ValueError(f"no rule computes per-layer metric {name!r}")
            span = ".".join(filter(None, (layer, what[:-2], rank)))
            values[name] = seconds[span] / ops
    notes = [
        f"per-layer metrics: means per op over {ops} traced ops",
        f"tracing overhead: {traced - plain:+.3f} s over {plain:.3f} s of plain op time",
    ]
    if not has_replay:
        notes.append("growth.rule_*: no growth diagram replayed")
    if absent:
        notes.append("absent (cache gone): " + ", ".join(absent))
    return values, notes


def metadata(seed: int) -> dict:
    src = ROOT / "src" / "growthdiagrams"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(src.glob("*.py")))
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "src_lines": lines,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "commit": commit,
    }


def declared_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # labeled trees in the JSON output nest one level per node
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20_000))

    try:
        if not (ROOT / "src" / "growthdiagrams" / "cli.py").is_file():
            raise SetupError(f"no package source under {ROOT / 'src'}")
        declared = declared_metrics("per_layer" if args.trace else "end_to_end")
        with Launcher() as launcher:
            setup = measure_setup(launcher)
            if args.trace:
                one = functools.partial(run_traced_op, launcher)
            else:
                one = lambda op: run_op(launcher, op)[0]
            share = 1 / TRACE_COST if args.trace else 1.0
            ncycles = workloads.cycle_count(args.workload, args.seconds)
            results = run_cycles(args.workload, args.seed, ncycles, one, share)
        if args.trace:
            values, notes = per_layer(results, list(declared))
        else:
            values, notes = end_to_end(results, setup)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    meta = metadata(args.seed)
    failures = [r for r in results if r.cause]
    # every failure but the known defect makes the run incorrect: the CLI
    # exits 1 when its own check finds a mismatch, and an op that fails
    # fast would otherwise make ops_per_s look better
    bad = [r for r in failures if not r.known]
    print(f"workload {args.workload}: {len(results)} ops in {ncycles} cycles, trace={args.trace}")
    for name, unit in declared.items():
        if name in values:
            print(f"  {name:40s} {values[name]:>14.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    for r in sorted(failures, key=lambda r: r.known)[:5]:
        print(f"  failed [{r.cause}{', known' if r.known else ''}] {r.op.label}: {r.reason}")
    print("meta " + json.dumps(meta, sort_keys=True))

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "meta": meta,
        "metrics": values,
        "ops": [[r.op.label, r.seconds, r.rss_mb, r.cause] for r in results],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if args.trace:
        with gzip.open(OUT / f"{stem}.spans.json.gz", "wt", encoding="utf-8") as fh:
            json.dump([[r.op.label, r.trace] for r in results], fh)

    print(json.dumps({
        "correct": not bad,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items() if name in values},
    }))
    return 0


if __name__ == "__main__":
    # turn a termination request into SystemExit, so that the launcher and
    # the op it runs are stopped on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
