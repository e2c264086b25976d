"""Time the stww pipeline end to end on one seeded workload.

    python3 pipebench/run.py --workload ksat-greedy --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  A run starts fresh child processes
(worker.py), one at a time.  Each child imports stww from ``src`` and writes
the seeded corpus (set-up), then takes every instance through its pipeline,
pass after pass, until its share of ``--seconds`` is spent.  This is a closed
loop with one caller: the next instance starts when the previous one
returns.  A fixed reference kernel (calibrate.py) runs between instances, and
every timing is reported in seconds at the kernel's reference speed: wall
seconds times REFERENCE_S over the kernel's time around them.  This cancels
the slow and fast phases of a shared machine.  An instance's time is the
median of its normalised runs; ``corpus_s`` adds these up over the corpus.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics.  With ``--trace 1`` untraced and traced children alternate and the
line holds the per-layer metrics.  An output that disagrees with its
reference makes the run exit 1.  Results and spans go to ``pipebench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("ksat-greedy", "chain-dp", "ksat-dp", "widths")
CHILDREN = 5  # timed children in an untraced run
SETUPS = 11  # set-ups in an untraced run for the median: timed and set-up-only children
TRACED_PAIRS = 2  # untraced/traced child pairs in a traced run
RUN_WALL_CAP_S = 170.0  # a run that takes longer is killed and fails

# Counters the pipelines report, under their per-layer metric names.
COUNTERS = {
    "bounds.greedy_sequence.pairs": "greedy_pairs",
    "bounds.greedy_sequence.width_sum": "greedy_width_sum",
    "sequence.steps": "verify_steps",
    "bwmc.regions_evaluated": "regions_evaluated",
    "bwmc.large_regions": "large_regions",
    "encoding.cnf_vars": "cnf_vars",
    "encoding.cnf_clauses": "cnf_clauses",
}
# Self-time metrics: metric name -> span names summed into it.  harness.s is
# the harness's own share: file reads and writes and loop overhead.
LAYERS = {
    "cnf.parse_dimacs.s": ("cnf.parse_dimacs",),
    "cnf.serialize_dimacs.s": ("cnf.serialize_dimacs",),
    "trigraph.incidence_graph.s": ("trigraph.incidence_graph",),
    "trigraph.parse_graph.s": ("trigraph.parse_graph",),
    "bounds.greedy_sequence.s": ("bounds.greedy_sequence",),
    "bounds.exact_tww_bruteforce.s": ("bounds.exact_tww_bruteforce",),
    "bounds.subdivided_clique_sequence.s": ("bounds.subdivided_clique_sequence",),
    "sequence.verify.s": ("sequence.verify",),
    "sequence.parse_sequence.s": ("sequence.parse_sequence",),
    "sequence.serialize_sequence.s": ("sequence.serialize_sequence",),
    "bwmc.solve_bwmc.s": ("bwmc.solve_bwmc",),
    "encoding.encode.s": ("encoding.encode",),
    "encoding.decode.s": ("encoding.decode",),
    "encoding.run_solver.s": ("encoding.run_solver",),
    "bipartize.bipartize.s": ("bipartize.bipartize",),
    "harness.s": ("pass", "instance"),
}


class RunFailed(Exception):
    pass


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def run_child(args, child_dir: Path, kind: str, budget: float, check: bool, probe: bool,
              deadline: float) -> dict:
    """Start one worker, wait for it, and return its report."""
    spawned_at = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--budget", repr(budget),
        "--setup-only", str(int(kind == "setup")), "--trace", str(int(kind == "traced")),
        "--check", str(int(check)), "--cli", str(int(check and kind == "untraced")),
        "--probe", str(int(probe)),
        "--spawned-at", repr(spawned_at), "--dir", str(child_dir),
    ]
    # A session of its own, so that killing it also stops any SAT solver it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed(f"the run passed its {RUN_WALL_CAP_S:.0f} s cap") from None
    if proc.returncode != 0:
        raise RunFailed(f"child exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def passes_of(children: list[dict]) -> list[dict]:
    return [p for child in children for p in child["passes"]]


def fastest(children: list[dict]) -> dict[str, float]:
    """Per instance, the fastest of its timed wall-clock runs over all passes."""
    best: dict[str, float] = {}
    for p in passes_of(children):
        for inst, seconds in p["instance_s"].items():
            best[inst] = min(seconds, best.get(inst, seconds))
    return best


def normalised(children: list[dict]) -> dict[str, float]:
    """Per instance, the median over all passes of its time at reference speed."""
    samples: dict[str, list[float]] = {}
    for p in passes_of(children):
        for inst, seconds in p["instance_s"].items():
            samples.setdefault(inst, []).append(seconds * REFERENCE_S / p["ref_s"][inst])
    return {inst: median(values) for inst, values in samples.items()}


def end_to_end(untraced: list[dict], setups: list[dict], attempted: int, failed: int) -> dict:
    per_instance = normalised(untraced)
    return {
        "setup_s": (median(c["setup_s"] * REFERENCE_S / c["setup_ref_s"]
                           for c in untraced + setups), "s"),
        "corpus_s": (sum(per_instance.values()), "s"),
        "instance_s.p50": (median(per_instance.values()), "s"),
        "instance_s.max": (max(per_instance.values()), "s"),
        "peak_rss_mib": (median(c["peak_rss_mib"] for c in untraced), "MiB"),
        "solved_frac": ((attempted - failed) / attempted, "ratio"),
    }


def dp_versus_oracle(traced: list[dict]) -> list[dict]:
    """Summed DP and oracle seconds per (n, k) on the instances both ran."""
    params = traced[0]["instances"]
    dp: dict[str, list[float]] = {}
    for p in passes_of(traced):
        for inst, seconds in p["dp_s"].items():
            dp[inst] = [min(pair) for pair in zip(seconds, dp.get(inst, seconds))]
    oracle = traced[0]["oracle_s"]
    table: dict[tuple[int, int], list] = {}
    for inst in sorted(set(dp) & set(oracle)):
        for k, d, o in zip(params[inst]["ks"], dp[inst], oracle[inst]):
            row = table.setdefault((params[inst]["n"], k), [0.0, 0.0, 0])
            row[0] += d
            row[1] += o
            row[2] += 1
    return [{"n": n, "k": k, "instances": count, "dp_s": d, "oracle_s": o,
             "dp_over_oracle": d / o}
            for (n, k), (d, o, count) in sorted(table.items())]


def per_layer(untraced: list[dict], traced: list[dict], table: list[dict]) -> dict:
    passes = passes_of(traced)
    # Each pass's self times at reference speed, by the median block of the pass.
    scale = [REFERENCE_S / median(p["ref_s"].values()) for p in passes]
    metrics = {
        name: (median(sum(p["layer_s"].get(span, 0.0) for span in spans) * factor
                      for p, factor in zip(passes, scale)), "s")
        for name, spans in LAYERS.items()
    }
    counters = passes[0]["counters"]
    for name, key in COUNTERS.items():
        metrics[name] = (counters.get(key, 0), "count")
    steps_in = counters.get("bipartize_in_steps", 0)
    metrics["bipartize.steps_ratio"] = (
        counters.get("bipartize_out_steps", 0) / steps_in if steps_in else 0.0, "ratio")
    metrics["bwmc.solve_bwmc.peak_mib"] = (max(c["bwmc_peak_mib"] for c in traced), "MiB")
    oracle_s = sum(row["oracle_s"] for row in table)
    metrics["oracle.bwmc_oracle.s"] = (oracle_s, "s")
    metrics["bwmc.solve_over_oracle"] = (
        sum(row["dp_s"] for row in table) / oracle_s if oracle_s else 0.0, "ratio")
    probes = next(c["probes"] for c in traced if "probes" in c)
    metrics["bwmc.chain_probe.failed"] = (probes.get("chain_probe_failed", 0), "count")
    metrics["bwmc.chain_probe.s"] = (probes.get("chain_probe_s", 0.0), "s")
    metrics["trace.overhead_s"] = (sum(normalised(traced).values())
                                   - sum(normalised(untraced).values()), "s")
    return metrics


def fingerprint(children: list[dict]) -> tuple[str, list[str]]:
    """SHA-256 over every instance's output digest in corpus order, and the
    instances whose passes emitted different outputs."""
    digests: dict[str, str] = {}
    differ = []
    for p in passes_of(children):
        for inst, digest in p["digests"].items():
            if digests.setdefault(inst, digest) != digest:
                differ.append(f"{inst}: passes emitted different outputs")
    pairs = [(inst, digests.get(inst)) for inst in children[0]["instances"]]
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest(), differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stww" / "__init__.py").is_file():
        print(f"pipebench: no stww sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_WALL_CAP_S
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)

    # Child kinds in start order.  A traced run alternates untraced and traced
    # children, so both halves see the same machine; the first traced child
    # runs the probes.  An untraced run puts set-up-only children between the
    # timed ones, for a median over more set-ups.
    if args.trace:
        plan = ["untraced", "traced"] * TRACED_PAIRS
    else:
        plan = ["untraced", "setup"] * CHILDREN + ["setup"] * (SETUPS - 2 * CHILDREN)
    timed_left = len(plan) - plan.count("setup")
    reports: dict[str, list[dict]] = {"untraced": [], "traced": [], "setup": []}
    timed_s = 0.0
    try:
        for number, kind in enumerate(plan):
            child_dir = run_dir / f"child{number}"
            budget = 0.0
            if kind != "setup":
                # An even share of the time left, so that what one child leaves
                # unused (it stops before a pass that would overrun) goes to the next.
                budget = (args.seconds - timed_s) / timed_left
                timed_left -= 1
            # The first child and the traced ones check their outputs; the
            # output fingerprint then covers the others.
            report = run_child(args, child_dir, kind, budget,
                               check=number == 0 or kind == "traced",
                               probe=kind == "traced" and not reports["traced"],
                               deadline=deadline)
            reports[kind].append(report)
            timed_s += report.get("timed_s", 0.0)
            for scratch in ("corpus", "work", "probe"):
                shutil.rmtree(child_dir / scratch, ignore_errors=True)
    except RunFailed as exc:
        print(f"pipebench: {exc}", file=sys.stderr)
        return 1

    untraced, traced, setups = reports["untraced"], reports["traced"], reports["setup"]
    children = untraced + traced
    errors = [e for child in children for e in child["errors"]]
    if len({child["corpus_digest"] for child in children + setups}) != 1:
        errors.append("children generated different corpora from one seed")
    output_fingerprint, differ = fingerprint(children)
    errors += differ
    untraced_passes = passes_of(untraced)
    attempted = sum(len(p["instance_s"]) for p in untraced_passes)
    failed = sum(len(p["failures"]) for p in untraced_passes)
    table = dp_versus_oracle(traced) if traced else []
    if args.trace:
        metrics = per_layer(untraced, traced, table)
    else:
        metrics = end_to_end(untraced, setups, attempted, failed)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "instances": len(children[0]["instances"]),
        "passes": [len(c["passes"]) for c in children],
        "pass_corpus_s": [p["corpus_s"] for p in untraced_passes],
        "setup_wall_s": [c["setup_s"] for c in untraced + setups],
        "setup_ref_s": [c["setup_ref_s"] for c in untraced + setups],
        "instance_s": normalised(untraced),
        "instance_wall_s_fastest": fastest(untraced),
        "ref_s_median": median(s for p in untraced_passes for s in p["ref_s"].values()),
        "samples": attempted,
        "corpus_digest": children[0]["corpus_digest"],
        "output_fingerprint": output_fingerprint,
        "failures": sorted({f"{i}: {e}" for c in children for p in c["passes"]
                            for i, e in p["failures"].items()}),
        "errors": errors,
        "probes": next((c["probes"] for c in traced if "probes" in c), {}),
        "dp_versus_oracle": table,
        "metrics": {name: value for name, (value, _unit) in metrics.items()},
    }
    (run_dir / "result.json").write_text(json.dumps(summary, indent=2) + "\n")
    for line in errors:
        print(f"pipebench: WRONG: {line}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {summary['instances']} instances, "
          f"passes per child {summary['passes']}, {attempted} timed samples")
    print(f"output fingerprint {output_fingerprint}")
    print(f"corpus digest {summary['corpus_digest']}")
    for row in table:
        print("dp vs oracle n={n} k={k}: dp {dp_s:.4f} s, oracle {oracle_s:.4f} s, "
              "ratio {dp_over_oracle:.2f} over {instances} instances".format(**row))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
