"""Self-test of the benchmark at a tiny size.  Run from the repository root:

    python3 perfbench/selftest.py

It checks that every workload, untraced and traced, prints each metric
that BENCHMARK.json names, with its unit, plus ``failed_share`` and
``wrong_answers``; that the search counters agree between an untraced
and a traced run; and that a deliberately wrong expected optimum makes
the correctness gate fail.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# instances per workload at the self-test's size; the pools list their
# quickest instances first
SIZES = {"families": 3, "pb": 3, "corpus": 20}
SEED = 7


def load_small(load):
    """``workloads.load`` cut down to the self-test's size."""

    def small(workload, *args):
        return load(workload, *args)[: SIZES[workload]]

    return small


def bench(workload: str, trace: int) -> tuple[int, str, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main([
            "--workload", workload, "--seed", str(SEED), "--seconds", "0.1",
            "--trace", str(trace),
        ])
    text = out.getvalue()
    return code, text, json.loads(text.strip().splitlines()[-1])


def printed(text: str, name: str, unit: str):
    """The value printed for a metric with this unit, or None."""
    pattern = rf"^\[\w+\] {re.escape(name)} +(-?[0-9.e+-]+) {re.escape(unit)}$"
    match = re.search(pattern, text, re.MULTILINE)
    return None if match is None else float(match.group(1))


def digest(text: str) -> str:
    return re.search(r"search counters digest (\w+)", text).group(1)


def check_metrics():
    for workload in workloads.WORKLOADS:
        digests = []
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, text, result = bench(workload, trace)
            assert code == 0 and result["correct"] and result["failed"] == 0, text
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, trace, set(got) ^ set(expected))
            for name, unit in [*expected.items(), ("failed_share", "ratio"), ("wrong_answers", "count")]:
                assert printed(text, name, unit) is not None, (workload, trace, name)
            digests.append(digest(text))
        assert digests[0] == digests[1], (workload, "counters differ between untraced and traced runs")
        print(f"selftest {workload}: metrics and units printed, counters {digests[0]} agree")


def check_gate():
    load = workloads.load

    def load_with_wrong_optimum(*args):
        instances = load(*args)
        first = next(i for i in instances if i.expected.status == "optimum")
        first.expected = replace(first.expected, value=first.expected.value + 1)
        return instances

    workloads.load = load_with_wrong_optimum
    try:
        for workload in workloads.WORKLOADS:
            code, text, result = bench(workload, 0)
            assert code != 0 and not result["correct"], text
            assert result["failed"] == len(workloads.CONFIGS), text
            assert printed(text, "wrong_answers", "count") == len(workloads.CONFIGS), text
            print(f"selftest {workload}: a wrong expected optimum fails {result['failed']} requests")
    finally:
        workloads.load = load


if __name__ == "__main__":
    workloads.CORPUS_SIZE = SIZES["corpus"]
    workloads.load = load_small(workloads.load)
    check_metrics()
    check_gate()
    print("selftest passed")
