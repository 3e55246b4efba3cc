"""The benchmark's own tests: every workload at a tiny size, the exact
repeat of work counts, the cost signature against the library's own
enumerations, the known-answer gate, and the refusal to run without the
library.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}
COUNTS = {m["name"] for m in BENCHMARK["per_layer"] if m["unit"] == "count"} | {"prism.kept_ratio"}
TINY_N = {"theorem1": 4, "facets": 4, "lattice": 3}
run.SETUP_MIN_S = 0.0  # tiny set-ups need not fill a second


def tiny(spec: dict) -> dict:
    return {**spec, "n": TINY_N[spec["kind"]], "min_items": 20, "items_per_second": 0, "known": {}}


class SmokeTest(unittest.TestCase):
    """Each workload once at a tiny size, untraced and traced."""

    def test_every_metric_is_reported_and_nothing_fails(self):
        for name, spec in run.load_workloads().items():
            for trace, expected in ((False, END_TO_END), (True, PER_LAYER)):
                with self.subTest(workload=name, trace=trace):
                    result = run.run(name, tiny(spec), seed=3, seconds=1, trace=trace)["result"]
                    self.assertEqual(set(result["metrics"]), expected)
                    self.assertEqual(result["failed"], 0)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 21)

    def test_benchmark_json_names_the_workloads(self):
        self.assertEqual({w["name"] for w in BENCHMARK["workloads"]}, set(run.load_workloads()))


class CountsTest(unittest.TestCase):
    def test_work_counts_repeat_exactly_for_one_seed(self):
        for name, spec in run.load_workloads().items():
            with self.subTest(workload=name):
                first, second = (
                    run.run(name, tiny(spec), seed=5, seconds=1, trace=True) for _ in range(2)
                )
                counts = [{k: r["result"]["metrics"][k]["value"] for k in COUNTS} for r in (first, second)]
                self.assertEqual(counts[0], counts[1])
                self.assertEqual(first["digest"], second["digest"])
                self.assertGreater(counts[0]["asm.calls"], 0)


class CostSignatureTest(unittest.TestCase):
    def test_signature_counts_what_the_library_enumerates(self):
        lib = run.load_library()
        for n in (3, 4, 5):
            above = workloads.PermsAbove(n)
            for a in lib.asm.enumerate_asms(n):
                pools = [
                    math.prod(sum(1 for _ in lib.prism.enumerate_rssyt(lam, d)) for lam, d in zip(spec.lambdas, spec.ds))
                    for spec in (lib.prism.bigrassmannian_model(a), lib.prism.parabolic_model(a))
                ]
                perms_above = sum(1 for w in lib.perm.all_perms(n) if lib.asm.asm_leq(a, w.matrix(n)))
                self.assertEqual(workloads.cost_signature(a.entries, above), (*pools, perms_above))


class KnownAnswerTest(unittest.TestCase):
    def test_a_wrong_digest_fails_every_item(self):
        name, spec = next(iter(run.load_workloads().items()))
        spec = {**tiny(spec), "known": {"seed": 7, "seconds": 1, "sha256": "0" * 16}}
        result = run.run(name, spec, seed=7, seconds=1, trace=False)["result"]
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


class MissingLibraryTest(unittest.TestCase):
    def test_exits_nonzero_without_a_result_when_src_is_absent(self):
        bare = run.OUT / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, *BENCHMARK["command"][1:], "--workload", "facets-n5",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
