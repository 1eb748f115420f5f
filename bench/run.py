#!/usr/bin/env python3
"""Benchmark for bnpg: end-to-end times of `bnpg psne|usw|esw`, per layer.

Usage, from the root of the repository:

    python3 bench/run.py --workload forest|sparse-tw|small-dense \
        [--seed 1] [--seconds 25] [--trace 0|1]

It imports bnpg from `src/` next to this directory, never an installed
copy, and exits 1 without a result when that is missing.  The timed pass
calls `bnpg.cli.main([question, FILE, "--machine"])` in this process for
every instance and question, round after round, until `--seconds` have
passed, with a calibration loop timed before and after each call.  With
`--trace 1` a traced pass follows (see `spans.py`).  Every answer is
checked (see `checks.py`).  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Results and the
span trace go to bench/results/.  See bench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

QUESTIONS = ("psne", "usw", "esw")
WORKLOADS = ("forest", "sparse-tw", "small-dense")
DEFAULT_SEED = 1
MIN_ROUNDS = 3
SETUP_SAMPLES = 15
TRACE_ROUNDS = 5

# Normalized seconds are wall / calibration * CALIB_REF_S: the time a call
# would take on a host where the calibration loop takes CALIB_REF_S.
CALIB_REF_S = 0.010
# setup_s is set against a bare interpreter start (`python3 -c pass`) next to
# each sample instead: a child process tracked the calibration loop poorly
# (spread over ten runs 8% against the loop, 3% against a bare start).
BARE_START_REF_S = 0.050


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: dict and int work, then
    Fraction sums and comparisons, as in the solvers' inner loops.

    Against 20-second windows of USW calls on one instance of each workload,
    this mix left a spread of 3.4-4.0% where dict and int work alone left
    4.4-5.0%, and raw times 21-34%.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(20_000):
        key = (i * 7919) % 521
        table[key] = table.get(key, 0) + i
    steps = [Fraction(k, d) for k in range(7) for d in (1, 2, 3, 4)]
    acc = best = Fraction(0)
    for i in range(1_200):
        acc += steps[i % 28]
        acc -= steps[(i * 5) % 28]
        if acc > best:
            best = acc
    elapsed = time.perf_counter() - start
    if len(table) != 521 or best < acc:
        raise AssertionError("calibration loop computed the wrong thing")
    return elapsed


def cli_call(main, question: str, path: str, flags=()):
    """One `bnpg <question> FILE --machine`: (seconds, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([question, path, "--machine", *flags])
    except SystemExit as exc:
        rc = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an operation that raises counts as failed
        rc = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, rc, out.getvalue()


def start_sample(code: str) -> tuple[float, int]:
    """A fresh interpreter running `code`: (seconds, exit code)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )  # no timeout: with one, the wait polls with sleeps of up to 50 ms
    return time.perf_counter() - start, proc.returncode


def measure_setup(ops: dict) -> dict:
    """SETUP_SAMPLES starts importing bnpg.cli, each next to a bare start."""
    start_sample("import bnpg.cli")  # writes the bytecode cache, which users have after one run
    walls, bare = [], []
    for _ in range(SETUP_SAMPLES):
        gc.collect()
        wall, rc = start_sample("import bnpg.cli")
        walls.append(wall)
        bare.append(start_sample("pass")[0])
        ops["attempted"] += 1
        if rc != 0:
            ops["setup_failed"] += 1
    return {"walls": walls, "bare": bare}


def record(outputs: dict, name: str, question: str, rc, out: str) -> None:
    """Count one answer; answers that differ only in elapsed_s are one."""
    answer = "\n".join(line for line in out.splitlines() if not line.startswith("elapsed_s="))
    key = (name, question, rc, answer)
    outputs[key] = outputs.get(key, 0) + 1


def timed_pass(main, instances, paths, seconds: float, ops: dict, outputs: dict) -> dict:
    """Rounds of every (instance, question) call until `seconds` pass."""
    samples = {(inst.name, q): {"walls": [], "ratios": []} for inst in instances for q in QUESTIONS}
    calibs: list[float] = []
    deadline = time.perf_counter() + seconds
    rounds = 0
    gc.collect()
    before = calibrate()
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        for inst in instances:
            for q in QUESTIONS:
                gc.collect()
                wall, rc, out = cli_call(main, q, paths[inst.name], inst.flags)
                after = calibrate()
                calibs.append(after)
                entry = samples[(inst.name, q)]
                entry["walls"].append(wall)
                entry["ratios"].append(wall / ((before + after) / 2))
                before = after
                ops["attempted"] += 1
                record(outputs, inst.name, q, rc, out)
        rounds += 1
    return {"samples": samples, "calibs": calibs, "rounds": rounds}


def traced_pass(main, instances, paths, ops: dict, outputs: dict):
    """TRACE_ROUNDS rounds of the same calls with spans around every layer."""
    import spans

    tracer = spans.Tracer()
    roots = []
    tracer.install()
    try:
        gc.collect()
        before = calibrate()
        for round_no in range(TRACE_ROUNDS):
            for inst in instances:
                for q in QUESTIONS:
                    gc.collect()
                    span = tracer.start("question", instance=inst.name, question=q, round=round_no)
                    _, rc, out = cli_call(main, q, paths[inst.name], inst.flags)
                    tracer.end(span)
                    after = calibrate()
                    span["scale"] = CALIB_REF_S / ((before + after) / 2)
                    before = after
                    roots.append(span)
                    ops["attempted"] += 1
                    record(outputs, inst.name, q, rc, out)
                    span["algorithm"] = dict(
                        line.split("=", 1) for line in out.splitlines() if "=" in line
                    ).get("algorithm", "none")
    finally:
        tracer.uninstall()
    tracer.settle()
    return tracer, roots


LAYER_TIMES = {
    "parse": "parse.s",
    "cc": "cc.s",
    "td.heuristic": "td.heuristic_s",
    "td.nice": "td.nice_s",
    "td.validate": "td.validate_s",
    "esw.probe": "esw.probe_s",
    "question": "cli.overhead_s",
}
for _family in ("ccforest", "treewidth", "oracle"):
    for _q in QUESTIONS:
        LAYER_TIMES[f"{_family}.{_q}"] = f"{_family}.{_q}_s"


def layer_metrics(tracer, roots, timed: dict, instances) -> dict:
    """Per-layer figures from the traced pass: normalized seconds and counts.

    Each span is normalized by the calibration around its question call,
    like the end-to-end metrics; `bench.*` figures are raw seconds.
    """
    from bnpg.game import payoff_levels

    games = {inst.name: inst.game for inst in instances}
    own = tracer.self_times()
    root_of: dict[int, dict] = {}
    for span in tracer.spans:
        root_of[span["id"]] = span if span["parent"] is None else root_of[span["parent"]]
    # per (instance, question, metric): one self-time sum per traced round
    per_op: dict[tuple, list[float]] = {}
    counts = {name: 0 for name in COUNT_METRICS}
    for span in tracer.spans:
        root = root_of[span["id"]]
        metric = LAYER_TIMES[span["name"]]
        key = (root["instance"], root["question"], metric)
        times = per_op.setdefault(key, [0.0] * TRACE_ROUNDS)
        seconds = own[span["id"]] if span["layer"] else span["end"] - span["start"]
        times[root["round"]] += seconds * root["scale"]
        if root["round"] != 0:
            continue  # counts repeat exactly; take them from one round
        name = span["name"]
        if name == "esw.probe":
            counts["esw.probes"] += 1
        for field, metric_name in (
            ("lines", "parse.lines"),
            ("cliques", "cc.cliques"),
            ("nodes", "td.nice_nodes"),
            ("profiles", "oracle.profiles"),
        ):
            if field in span:
                counts[metric_name] += span[field]
        if "width" in span:
            counts["td.width"] = max(counts["td.width"], span["width"])
        if "entries" in span:
            counts[f"{name}.entries"] += span["entries"]
        if name == "question":
            algorithm = span["algorithm"]
            if f"cli.{algorithm}" in counts:
                counts[f"cli.{algorithm}"] += 1
            if span["question"] == "esw" and algorithm in ("ccforest", "treewidth"):
                counts["esw.candidates"] += len(payoff_levels(games[span["instance"]]))
    layer = {name: 0.0 for name in LAYER_TIMES.values()}
    accounting = {q: {"layers_s": 0.0, "traced_s": 0.0, "untraced_s": 0.0} for q in QUESTIONS}
    for (_, q, metric), times in per_op.items():
        layer[metric] += statistics.median(times)
        if metric != "esw.probe_s":  # probes are part of the ESW solver's self time
            accounting[q]["layers_s"] += statistics.median(times)
    traced: dict[tuple, list[float]] = {}
    for r in roots:
        traced.setdefault((r["instance"], r["question"]), []).append((r["end"] - r["start"]) * r["scale"])
    walls = {q: 0.0 for q in QUESTIONS}
    for (name, q), entry in timed["samples"].items():
        walls[q] += statistics.median(entry["walls"])
        accounting[q]["traced_s"] += statistics.median(traced[(name, q)])
        accounting[q]["untraced_s"] += statistics.median(entry["ratios"]) * CALIB_REF_S
    traced_total = sum(a["traced_s"] for a in accounting.values())
    untraced = sum(a["untraced_s"] for a in accounting.values())
    out = {name: (value, "s") for name, value in layer.items()}
    out.update({name: (value, "count") for name, value in counts.items()})
    out["bench.calib_s"] = (statistics.median(timed["calibs"]), "s")
    for q in QUESTIONS:
        out[f"bench.wall.{q}_s"] = (walls[q], "s")
    out["bench.trace_overhead_s"] = (traced_total - untraced, "s")
    return out, accounting


COUNT_METRICS = (
    ["parse.lines", "cc.cliques", "td.width", "td.nice_nodes"]
    + [f"{f}.{q}.entries" for f in ("ccforest", "treewidth") for q in QUESTIONS]
    + ["esw.candidates", "esw.probes", "oracle.profiles", "cli.ccforest", "cli.treewidth", "cli.brute"]
)


def end_to_end_metrics(timed: dict, setup: dict) -> dict:
    ratio = statistics.median(setup["walls"]) / statistics.median(setup["bare"])
    out = {"setup_s": (ratio * BARE_START_REF_S, "s")}
    for q in QUESTIONS:
        total = sum(
            statistics.median(entry["ratios"])
            for (_, question), entry in timed["samples"].items()
            if question == q
        )
        out[f"{q}_s"] = (total * CALIB_REF_S, "s")
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_bnpg():
    """bnpg from this checkout's src/, or None."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import bnpg.cli
    except ImportError as exc:
        print(f"error: cannot import bnpg from {src}: {exc}", file=sys.stderr)
        return None
    if Path(bnpg.cli.__file__).resolve().parent.parent != src:
        print(f"error: bnpg was imported from {bnpg.cli.__file__}, not {src}", file=sys.stderr)
        return None
    return bnpg.cli


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = load_bnpg()
    if cli is None:
        return 1
    import checks
    import workloads
    from bnpg.instance_io import serialize_instance

    started = time.perf_counter()
    instances = workloads.build(args.workload, args.seed)
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        paths = {}
        for inst in instances:
            path = work / f"{inst.name}.bnpg"
            path.write_text(serialize_instance(inst.game), encoding="utf-8")
            paths[inst.name] = str(path)
        scaled = {inst.name: checks.Scaled(inst.game) for inst in instances}
        refs = {inst.name: checks.reference(inst, scaled[inst.name]) for inst in instances}
        prepared = time.perf_counter() - started

        ops = {"attempted": 0, "setup_failed": 0}
        outputs: dict[tuple, int] = {}
        setup = measure_setup(ops)
        timed = timed_pass(cli.main, instances, paths, args.seconds, ops, outputs)
        tracer = roots = None
        if args.trace:
            tracer, roots = traced_pass(cli.main, instances, paths, ops, outputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = []
    wrong = 0
    for (name, q, rc, out), times in outputs.items():
        if isinstance(rc, str):
            problem = rc
        else:
            problem = checks.check_answer(q, rc, out, scaled[name], refs[name], args.seed)
            if problem is not None and rc in (0, 2):
                wrong += times
        if problem is not None:
            failures.append({"instance": name, "question": q, "problem": problem, "times": times})
    failed = ops["setup_failed"] + sum(f["times"] for f in failures)

    e2e = end_to_end_metrics(timed, setup)
    layer, accounting = layer_metrics(tracer, roots, timed, instances) if args.trace else ({}, {})
    metrics = layer if args.trace else e2e
    RESULTS.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.dump(RESULTS / f"trace-{args.workload}-seed{args.seed}.json")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": timed["rounds"],
        "prepare_s": prepared,
        "calib_ref_s": CALIB_REF_S,
        "setup_wall_s": statistics.median(setup["walls"]),
        "bare_start_wall_s": statistics.median(setup["bare"]),
        "instances": [
            {
                "name": inst.name,
                "make": inst.make,
                **{
                    f"{q}_{kind}_s": statistics.median(timed["samples"][(inst.name, q)][field]) * scale
                    for q in QUESTIONS
                    for kind, field, scale in (("norm", "ratios", CALIB_REF_S), ("wall", "walls", 1))
                },
            }
            for inst in instances
        ],
        "failures": failures,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layer.items()},
        "accounting": accounting,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")

    for name, (value, unit) in {**e2e, **layer}.items():
        print(f"{args.workload:12} {name:28} {value:14.6f} {unit}")
    for q, a in accounting.items():
        print(
            f"{args.workload:12} accounting {q}: layers + cli.overhead {a['layers_s']:.4f} s, "
            f"traced {a['traced_s']:.4f} s, untraced {a['untraced_s']:.4f} s"
        )
    for f in failures:
        print(f"FAILED {f['instance']} {f['question']} x{f['times']}: {f['problem']}")
    print(
        json.dumps(
            {
                "correct": wrong == 0,
                "attempted": ops["attempted"],
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
