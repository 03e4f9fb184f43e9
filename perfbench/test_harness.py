"""Self-tests for the benchmark's own arithmetic and bookkeeping.

Run from the repository root:

    python3 perfbench/test_harness.py
"""
from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from harness import (  # noqa: E402
    SpanTable,
    conv2d_flops,
    conv_transpose2d_flops,
    percentile,
    tail_percentile,
)
from layers import Tracer, layer_metrics  # noqa: E402
from sepattn import netarch, trainer  # noqa: E402
from sepattn.datapipe import generate_synthetic_dataset  # noqa: E402
from sepattn.diffcore import Parameter, Tensor4, ops  # noqa: E402
from run import WORKLOADS  # noqa: E402
from speed import REFERENCE_S, Speed  # noqa: E402
from workloads import EXTRA_LAYER_METRICS, degrade_params, tree_digest  # noqa: E402


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        cases = {9: None, 10: None, 19: None, 20: 50, 39: 50, 40: 75, 72: 75,
                 100: 90, 199: 90, 200: 95, 1000: 99, 9999: 99, 10000: 99.9}
        for n, want in cases.items():
            self.assertEqual(tail_percentile(n), want, f"n={n}")

    def test_nearest_rank(self):
        vals = list(range(100, 0, -1))
        self.assertEqual(percentile(vals, 90), 90)
        self.assertEqual(percentile(vals, 50), 50)
        self.assertEqual(percentile([5.0, 1.0, 3.0], 50), 3.0)
        self.assertEqual(percentile([7.0], 99.9), 7.0)


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        t = SpanTable(scope=("step",))
        t.enter("outside")
        t.leave("outside", 4.0)
        t.enter("step")
        t.enter("op")
        t.leave("op", 3.0)
        t.enter("model")
        t.enter("op")
        t.leave("op", 1.5)
        t.leave("model", 2.0)
        t.untraced(1.0)  # a dormant stretch is no one's self time
        t.leave("step", 10.0)
        self.assertEqual(t.calls, {("outside", False): 1, ("step", True): 1, ("op", True): 2,
                                   ("model", True): 1})
        self.assertEqual(t.total[("op", True)], 4.5)
        self.assertEqual(t.self_time[("step", True)], 4.0)
        self.assertEqual(t.self_time[("model", True)], 0.5)
        self.assertEqual(t.self_time[("op", True)], 4.5)
        # self times inside the scope add up to the scope span less the untraced
        # stretch; "outside" is excluded
        self.assertEqual(t.scoped_self, 9.0)
        # work inside steps is divided by steps traced, work between steps by all steps
        self.assertEqual(t.per(t.total, ["op", "outside"], 3, 8), 4.5 / 3 + 4.0 / 8)


class ComputedCosts(unittest.TestCase):
    X, W, OUT = (2, 3, 8, 8), (4, 3, 3, 3), (2, 4, 4, 4)

    def test_conv_flops_for_known_shape(self):
        # 2 images x 4 out channels x 16 pixels x 27 weights x 2 FLOPs per MAC
        self.assertEqual(conv2d_flops(self.X, self.W, self.OUT), 6912)
        # the adjoint maps the output back to the input: same MAC count
        self.assertEqual(conv_transpose2d_flops(self.OUT, self.W), 6912)

    def test_tracer_counts_conv_flops_and_bytes(self):
        rng = np.random.default_rng(0)
        x = Tensor4(rng.normal(size=self.X), requires_grad=True)
        w = Parameter("w", Tensor4(rng.normal(size=self.W))).tensor
        with Tracer() as tracer:  # patches module attributes, so call through the module
            out = ops.conv2d(x, w, None, stride=2, padding=1)
            ops.backward(ops.mean_sq(out))
        self.assertEqual(out.shape, self.OUT)
        # forward, then weight and input gradients in backward
        self.assertEqual(tracer.conv_flops, 3 * 6912)
        conv_fwd = 1536 + 432 + 512
        conv_bwd = 512 + 1536 + 432
        sq_fwd, sq_bwd = 512 + 4, 4 + 512
        self.assertEqual(tracer.bytes_moved, conv_fwd + conv_bwd + sq_fwd + sq_bwd)
        rows = layer_metrics(tracer, 1, 1)
        self.assertEqual(rows["diffcore.conv2d.calls"], (1.0, "count"))
        self.assertEqual(rows["diffcore.elementwise.calls"], (1.0, "count"))
        self.assertGreater(rows["diffcore.conv2d.bwd_ms"][0], 0.0)

    def test_tracer_puts_every_original_back(self):
        before = (trainer.train_step, trainer.backward, netarch.conv2d,
                  netarch.Generator.__dict__["forward"])
        with Tracer():
            self.assertIsNot(trainer.train_step, before[0])
            self.assertIsNot(netarch.conv2d, before[2])
        after = (trainer.train_step, trainer.backward, netarch.conv2d,
                 netarch.Generator.__dict__["forward"])
        self.assertEqual(before, after)


class SpeedFactor(unittest.TestCase):
    def test_timings_scale_by_reference_over_probe_median(self):
        speed = Speed()
        speed.samples = [0.04, 0.10, 0.05]  # median 0.05: the host runs at REFERENCE_S / 0.05 speed
        self.assertAlmostEqual(speed.factor, REFERENCE_S / 0.05)
        self.assertEqual(len(speed.samples), 3)
        speed.probe(2)
        self.assertEqual(len(speed.samples), 5)


class SeededInputs(unittest.TestCase):
    def test_one_seed_renders_identical_files(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for name, seed in (("a", 5), ("b", 5), ("c", 6)):
                generate_synthetic_dataset(4, 16, degrade_params(seed), seed, root / name)
            self.assertEqual(tree_digest(root / "a"), tree_digest(root / "b"))
            self.assertNotEqual(tree_digest(root / "a"), tree_digest(root / "c"))


class SpecConsistency(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.pred = json.loads((ROOT / "perfbench" / "predictions.json").read_text())

    def test_per_layer_names_match_what_a_traced_run_emits(self):
        emitted = set(layer_metrics(Tracer(), 1, 1)) | set(EXTRA_LAYER_METRICS)
        self.assertEqual({m["name"] for m in self.spec["per_layer"]}, emitted)

    def test_prediction_table_names_exist(self):
        layer = {m["name"] for m in self.spec["per_layer"]}
        e2e = {m["name"] for m in self.spec["end_to_end"]}
        workloads = set(WORKLOADS)  # every workload the command runs, measured by default or not
        for row in self.pred["predictions"]:
            self.assertLessEqual(set(row["layer_metrics"]), layer)
            self.assertLessEqual(set(row["moves"]), e2e)
            self.assertLessEqual(set(row["workloads"]) | set(row.get("unchanged_on", [])), workloads)
        for row in self.pred["end_to_end_names"]:
            self.assertIn(row["json_metric"], e2e | {None})


if __name__ == "__main__":
    unittest.main()
