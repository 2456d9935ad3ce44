"""Generator tests: python3 perfbench/test_gen.py

The same seed must give byte-identical inputs; another seed must give
other names and deadlines with the same operation counts."""

import json
import os
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import gen  # noqa: E402

GENERATORS = {
    "resident-3k": gen.resident_3k,
    "tenant-churn": gen.tenant_churn,
    "offline-pipeline": gen.offline_pipeline,
}


def dump(w):
    return json.dumps(w, sort_keys=True).encode()


def specs(w):
    if "spec" in w:
        return [w["spec"]]
    return [w["files"][k] for k in sorted(w["files"])]


def op_lists(w):
    """Every per-connection op list of a daemon workload."""
    return w["warmup"] + [l for seg in w["segments"] for stage in seg["stages"]
                          for l in stage]


def requests(w):
    if "ops" in w:
        return [" ".join(op["argv"]) for op in w["ops"]]
    return [json.dumps(op["req"], sort_keys=True) for l in op_lists(w) for op in l]


def shape(w):
    """Operation counts per list and kind, and the expected answers."""
    if "ops" in w:
        return sorted((op["kind"], op["argv"][0], op["expect_rc"]) for op in w["ops"])
    return [sorted((op["req"]["op"], json.dumps(op["expect"], sort_keys=True))
                   for op in l) for l in op_lists(w)]


def names(text):
    return set(re.findall(r"(?:element|constraint) (\w+)", text))


def deadlines(text):
    return sorted(int(d) for d in re.findall(r"deadline (\d+)", text))


class GeneratorTest(unittest.TestCase):
    def test_same_seed_is_byte_identical(self):
        for name, g in GENERATORS.items():
            with self.subTest(workload=name):
                self.assertEqual(dump(g(7)), dump(g(7)))

    def test_other_seed_renames_and_redeadlines_with_same_counts(self):
        for name, g in GENERATORS.items():
            with self.subTest(workload=name):
                a, b = g(1), g(2)
                self.assertEqual(shape(a), shape(b))
                self.assertEqual(len(requests(a)), len(requests(b)))
                text_a = "".join(specs(a)) + "".join(requests(a))
                text_b = "".join(specs(b)) + "".join(requests(b))
                self.assertTrue(names(text_a).isdisjoint(names(text_b)))
                self.assertNotEqual(deadlines(text_a), deadlines(text_b))

    def test_daemon_ids_are_unique(self):
        for name in gen.DAEMON_WORKLOADS:
            with self.subTest(workload=name):
                w = GENERATORS[name](3)
                ids = [op["req"]["id"] for l in op_lists(w) for op in l]
                self.assertEqual(len(ids), len(set(ids)))


if __name__ == "__main__":
    unittest.main()
