"""One child process of the benchmark: set up a workload, time passes, check.

Started by run.py, one at a time.  It imports stww from the checkout's
``src`` directory and generates and writes the seeded corpus (set-up).  It
then takes every instance through its pipeline, pass after pass, until its
time budget is spent, with a reference block (calibrate.py) between
instances.  With ``--check 1`` it checks the outputs.  The last line of its
standard output is one JSON object for run.py.  Checks, tracemalloc (traced
children only) and the defect probes run after timing.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# A pipeline still running after this long counts as a failed instance.
INSTANCE_LIMIT_S = 30.0
# Reference blocks right after set-up, for the machine's speed during it.
SETUP_BLOCKS = 5


class InstanceTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise InstanceTimeout(f"instance ran past {INSTANCE_LIMIT_S} s")


def import_stww() -> None:
    """Import stww from this checkout's src, never from anywhere else."""
    if not (SRC / "stww" / "__init__.py").is_file():
        raise SystemExit(f"no stww sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import stww

    if Path(stww.__file__).resolve().parent != (SRC / "stww").resolve():
        raise SystemExit(f"stww imported from {stww.__file__}, not from {SRC}")


def limited(fn, *args):
    """Run fn under the per-instance time limit; return (error or None, value).

    A failure is reported, never retried; the recursion limit stays as it is.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, INSTANCE_LIMIT_S)
    try:
        return None, fn(*args)
    except (InstanceTimeout, RecursionError, MemoryError, ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}", None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_pass(corpus, tr, workdir, run_instance):
    """Every instance through its pipeline once, under one root span.

    A reference block (calibrate.py) runs before the first instance and after
    each one; ``refs`` holds, per instance, the mean of the two blocks around
    it: the machine's speed while the instance ran.
    """
    times, refs, results, failures = {}, {}, {}, {}

    def body():
        before = tr.call("calibrate", calibrate.block)
        for inst in corpus:
            tr.instance = inst.id
            start = time.perf_counter()
            error, res = limited(tr.call, "instance", run_instance, inst, tr, workdir)
            times[inst.id] = time.perf_counter() - start
            tr.instance = None
            after = tr.call("calibrate", calibrate.block)
            refs[inst.id] = (before + after) / 2
            before = after
            if error is None:
                results[inst.id] = res
            else:
                failures[inst.id] = error

    tr.call("pass", body)
    return times, refs, results, failures


def span_seconds(tr, name: str) -> dict[str, list[float]]:
    """Per instance, the durations of its spans with this name, in call order."""
    out: dict[str, list[float]] = {}
    for span in tr.finished():
        if span.name == name:
            out.setdefault(span.instance, []).append(span.end - span.start)
    return out


def bwmc_peak_mib(corpus, workdir) -> float:
    """Largest tracemalloc peak of one solve_bwmc call over the DP instances."""
    from stww.bwmc import solve_bwmc
    from stww.cnf import parse_dimacs
    from stww.sequence import parse_sequence

    peak = 0
    for inst in corpus:
        if inst.kind not in ("chain", "dp"):
            continue
        formula, weights = parse_dimacs(inst.files["cnf"].read_text())
        seq_path = inst.files.get("tws") or workdir / f"{inst.id}.tws"
        seq = parse_sequence(seq_path.read_text())
        for k in inst.params["ks"]:
            tracemalloc.start()
            try:
                limited(solve_bwmc, formula, weights, k, seq)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    return peak / 2**20


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True, help="seconds of timed passes")
    parser.add_argument("--setup-only", type=int, choices=(0, 1), default=0,
                        help="stop after set-up and report only its time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=0,
                        help="check the outputs of the last pass against the references")
    parser.add_argument("--cli", type=int, choices=(0, 1), default=0,
                        help="also check one in-process stww command")
    parser.add_argument("--probe", type=int, choices=(0, 1), default=0,
                        help="also run the defect probes")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    parser.add_argument("--dir", type=Path, required=True)
    args = parser.parse_args(argv)

    import_stww()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    from tracing import NullTracer, Tracer, self_time_by_name, write_spans

    workdir = args.dir / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    corpus = workloads.build_corpus(args.workload, args.seed, args.dir / "corpus")
    setup_s = time.monotonic() - args.spawned_at
    setup_ref_s = statistics.median(calibrate.block() for _ in range(SETUP_BLOCKS))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s,
                          "corpus_digest": workloads.corpus_digest(corpus)}))
        return 0

    tracers = []
    passes = []
    started = time.perf_counter()
    while True:
        tr = Tracer() if args.trace else NullTracer()
        pass_start = time.perf_counter()
        times, refs, results, failures = run_pass(corpus, tr, workdir, workloads.run_instance)
        pass_s = time.perf_counter() - pass_start
        counters: dict = {}
        for res in results.values():
            for key, amount in res.counters.items():
                counters[key] = counters.get(key, 0) + amount
        record = {
            "pass_s": pass_s,
            "corpus_s": sum(times.values()),
            "instance_s": times,
            "ref_s": refs,
            "failures": failures,
            "counters": counters,
            "digests": {inst_id: workloads.output_digest(res) for inst_id, res in results.items()},
        }
        if args.trace:
            tracers.append(tr)
            record["layer_s"] = self_time_by_name(tr.spans, "pass")
            record["dp_s"] = span_seconds(tr, "bwmc.solve_bwmc")
        passes.append(record)
        spent = time.perf_counter() - started
        if spent + statistics.median(p["pass_s"] for p in passes) > args.budget:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "peak_rss_mib": peak_rss_mib,
        "timed_s": spent,
        "passes": passes,
        "corpus_digest": workloads.corpus_digest(corpus),
        "instances": {inst.id: inst.params for inst in corpus},
        "errors": [],
    }
    tr = Tracer() if args.trace else NullTracer()

    def check_all():
        for inst in corpus:
            if inst.id in results:
                tr.instance = inst.id
                try:
                    workloads.check_instance(inst, results[inst.id], tr)
                except workloads.CheckFailure as exc:
                    report["errors"].append(str(exc))
        tr.instance = None

    if args.check:
        tr.call("check", check_all)
    if args.cli:
        try:
            workloads.check_cli(corpus, results, workdir)
        except workloads.CheckFailure as exc:
            report["errors"].append(str(exc))
    if args.trace:
        tracers.append(tr)
        report["oracle_s"] = span_seconds(tr, "oracle.bwmc_oracle")
        write_spans(args.dir / "spans.jsonl", tracers)
        report["bwmc_peak_mib"] = bwmc_peak_mib(corpus, workdir)
    if args.probe:
        report["probes"] = workloads.run_probes(
            args.workload, args.dir / "probe", limited, NullTracer()
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
