"""Tests of the benchmark's own references, corpus and tracing.

    python -m pytest pipebench
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402
from stww.cnf import WeightFunction  # noqa: E402
from stww.oracle import bwmc_oracle  # noqa: E402
from tracing import NullTracer, Tracer, self_times  # noqa: E402
from worker import run_pass  # noqa: E402


def _weights_with_zero_and_negative(rng: random.Random, n: int) -> WeightFunction:
    table = {lit: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
             for v in range(1, n + 1) for lit in (v, -v)}
    table[n] = Fraction(0)  # a zero on the last variable, which every t >= 1 uses
    table[-1] = Fraction(-3, 2)
    return WeightFunction(table)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 16])
def test_chain_closed_form_matches_oracle(n):
    rng = random.Random(n)
    formula = workloads.implication_chain(n)
    for weights in (_weights_with_zero_and_negative(rng, n), workloads._weights(rng, n, False)):
        for k in range(5):
            assert workloads.chain_closed_form(weights, n, k) == bwmc_oracle(formula, weights, k)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_one_corpus(tmp_path, workload):
    first = workloads.build_corpus(workload, 7, tmp_path / "a")
    second = workloads.build_corpus(workload, 7, tmp_path / "b")
    other = workloads.build_corpus(workload, 8, tmp_path / "c")
    assert workloads.corpus_digest(first) == workloads.corpus_digest(second)
    assert workloads.corpus_digest(first) != workloads.corpus_digest(other)


def test_reference_kernel_is_fixed_and_timed():
    assert calibrate.kernel() == calibrate.kernel()
    blocks = [calibrate.block() for _ in range(3)]
    assert all(0 < seconds < 1 for seconds in blocks)


def test_span_self_times_sum_to_traced_wall_time(tmp_path):
    corpus = workloads.build_corpus("chain-dp", 3, tmp_path / "corpus")[:2]
    tracer = Tracer()
    start = time.perf_counter()
    times, refs, results, failures = run_pass(corpus, tracer, tmp_path, workloads.run_instance)
    wall = time.perf_counter() - start
    assert not failures and set(results) == {inst.id for inst in corpus}
    assert set(refs) == set(times) and all(ref > 0 for ref in refs.values())

    spans = tracer.finished()
    roots = [span for span in spans if span.parent is None]
    assert [span.name for span in roots] == ["pass"]
    total_self = sum(self_times(tracer.spans))
    assert total_self == pytest.approx(roots[0].end - roots[0].start, rel=1e-9, abs=1e-9)
    assert total_self <= wall
    assert sum(times.values()) <= total_self
    names = {span.name for span in spans}
    assert {"instance", "calibrate", "cnf.parse_dimacs", "sequence.verify",
            "bwmc.solve_bwmc"} <= names
    assert sum(span.name == "calibrate" for span in spans) == len(corpus) + 1
    assert all(span.instance in times for span in spans
               if span.name not in ("pass", "calibrate"))


def test_untraced_pass_emits_what_the_traced_pass_emits(tmp_path):
    corpus = workloads.build_corpus("widths", 4, tmp_path / "corpus")
    corpus = [inst for inst in corpus if inst.kind in ("grid", "subclique", "brute")]
    _, _, plain, _ = run_pass(corpus, NullTracer(), tmp_path, workloads.run_instance)
    _, _, traced, _ = run_pass(corpus, Tracer(), tmp_path, workloads.run_instance)
    assert {i: workloads.output_digest(r) for i, r in plain.items()} == {
        i: workloads.output_digest(r) for i, r in traced.items()
    }
    for inst in corpus:
        workloads.check_instance(inst, plain[inst.id], NullTracer())


def test_check_rejects_a_wrong_count(tmp_path):
    inst = workloads.build_corpus("chain-dp", 5, tmp_path / "corpus")[0]
    _, _, results, _ = run_pass([inst], NullTracer(), tmp_path, workloads.run_instance)
    result = results[inst.id]
    workloads.check_instance(inst, result, NullTracer())
    counts = result.outputs["counts"]
    counts["2"] = str(Fraction(counts["2"]) + 1)
    with pytest.raises(workloads.CheckFailure):
        workloads.check_instance(inst, result, NullTracer())


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric(trace, section):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "chain-dp", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_run_fails_without_the_package(tmp_path):
    bench = tmp_path / "pipebench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "pipebench/run.py", "--workload", "widths", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
