#!/usr/bin/env python3
"""Self-tests of the benchmark: ``python3 perfbench/selftest.py``.

Checks that the generators are deterministic for a seed and differ across
seeds, that every output check fails on a corrupted answer (an off-by-one
count, a dropped pulse, one wrong decoded level), that an op that raises
is a failed op, that the span arithmetic adds up, and that
``BENCHMARK.json`` names exactly the metrics and workloads this code
reports.
"""

import json
import os
import sys
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def take(iterator, count):
    return [next(iterator) for _ in range(count)]


class Generators(unittest.TestCase):
    def test_interactive_stream(self):
        first = take(gen.interactive_requests(7, 0), 400)
        self.assertEqual(first, take(gen.interactive_requests(7, 0), 400))
        self.assertNotEqual(first, take(gen.interactive_requests(8, 0), 400))
        self.assertNotEqual(first, take(gen.interactive_requests(7, 1), 400))
        repeats = [i for i, (origin, _ops) in enumerate(first) if origin != i]
        self.assertTrue(0.15 < len(repeats) / len(first) < 0.35)
        for index in repeats:
            origin, operands = first[index]
            self.assertLess(origin, index)
            self.assertEqual(first[origin], (origin, operands))

    def test_bursts_are_distinct(self):
        seen = [ops for burst in take(gen.bursts(3), 20) for ops in burst]
        self.assertEqual(len(seen), len(set(seen)))
        self.assertEqual(seen[:64], next(gen.bursts(3)))
        self.assertNotEqual(seen[:64], next(gen.bursts(4)))
        self.assertNotIn(seen[0], next(gen.bursts(3, "warmup")))

    def test_spec_documents(self):
        docs = gen.spec_documents(5)
        self.assertEqual(docs, gen.spec_documents(5))
        self.assertNotEqual(docs, gen.spec_documents(6))
        self.assertEqual(len(docs), gen.SMALL_SPECS + len(gen.TAIL_SHAPES))

    def test_shard_stimulus(self):
        trains = gen.shard_stimulus(2)
        self.assertEqual(trains, gen.shard_stimulus(2))
        self.assertNotEqual(trains, gen.shard_stimulus(3))
        self.assertEqual([len(t) for t in trains], [gen.PULSES] * gen.COLUMNS)


class Checks(unittest.TestCase):
    def test_dpu_off_by_one_fails(self):
        operands = take(gen.bursts(1), 1)[0][:8]
        for (a_slots, b_counts), count in zip(operands,
                                              checks.dpu_expected_counts(operands)):
            body = json.dumps({"ok": True, "op": "dpu.dot",
                               "result": {"count": count}}).encode()
            self.assertTrue(checks.dpu_response_ok(body, count))
            self.assertFalse(checks.dpu_response_ok(body, count + 1))
            self.assertFalse(checks.dpu_response_ok(body, count - 1))

    def test_evaluator_matches_compiler_on_the_mix(self):
        from repro.synth import compile_json

        for doc in gen.spec_documents(11)[:60]:
            program = compile_json(doc)
            ours = checks.dataflow_levels(json.loads(doc))
            self.assertEqual(ours, {o.ref: o.expected_level for o in program.outputs})

    def test_program_check_catches_each_fault(self):
        good = {"a": 3, "b": 0}
        self.assertEqual(checks.program_failures(good, good, 0, 0), [])
        self.assertTrue(checks.program_failures({"a": 4, "b": 0}, good, 0, 0))
        self.assertTrue(checks.program_failures(good, good, 1, 0))
        self.assertTrue(checks.program_failures(good, good, 0, 1))

    def test_recordings_check_catches_a_dropped_pulse(self):
        reference = {"y": [10, 20, 30]}
        self.assertEqual(checks.recordings_failures({"y": [10, 20, 30]}, reference, 0), [])
        self.assertTrue(checks.recordings_failures({"y": [10, 30]}, reference, 0))
        self.assertTrue(checks.recordings_failures({"y": [10, 20, 31]}, reference, 0))
        self.assertTrue(checks.recordings_failures({"y": [10, 20, 30]}, reference, 1))


class PhasesCatchCorruption(unittest.TestCase):
    """A corrupted answer from the program must reach ``failed``."""

    def test_serve_burst_off_by_one(self):
        from repro.core.dpu import DotProductUnit

        original = DotProductUnit.run_counts_batch

        def off_by_one(self, a_rows, b_rows):
            counts = original(self, a_rows, b_rows)
            counts[0] += 1
            return counts

        workload = workloads.ServeBurst(1)
        workload.setup()
        try:
            with mock.patch.object(DotProductUnit, "run_counts_batch", off_by_one):
                phase = workload.phase(0.001)
        finally:
            workload.close()
        self.assertEqual(len(phase.failures), 1)
        self.assertEqual(phase.bad_ops, {0})

    def test_synth_one_wrong_level(self):
        workload = workloads.SynthCompile(2)
        workload.setup()
        ref = next(iter(workload.expected[3]))
        workload.expected[3][ref] += 1
        workload.docs = workload.docs[:10]
        phase = workload.phase(0.001)
        self.assertEqual(phase.failures[0].split(":")[0], "spec 3")
        self.assertEqual(len(phase.failures), 1)

    def test_synth_exception_is_a_failed_op(self):
        from repro.synth.lower import CompiledProgram

        def crash(self, *args, **kwargs):
            raise RuntimeError("simulated crash")

        workload = workloads.SynthCompile(2)
        workload.setup()
        workload.docs = workload.docs[:1]
        with mock.patch.object(CompiledProgram, "simulate", crash):
            phase = workload.phase(0.001)
        self.assertEqual((phase.attempted, len(phase.failures)), (1, 1))
        self.assertIn("simulated crash", phase.failures[0])

    def test_shard_dropped_pulse_and_crash(self):
        from repro.shard import ShardSimulator

        original = ShardSimulator.recordings

        def drop_one(self):
            recordings = original(self)
            label = sorted(recordings)[0]
            recordings[label] = recordings[label][:-1]
            return recordings

        def crash(self, *args, **kwargs):
            raise RuntimeError("simulated crash")

        workload = workloads.ShardFabric(1)
        workload.setup()
        with mock.patch.object(ShardSimulator, "recordings", drop_one):
            phase = workload.phase(0.001)
        self.assertEqual(phase.attempted, 1)
        self.assertEqual(len(phase.failures), 1)
        with mock.patch.object(ShardSimulator, "run", crash):
            phase = workload.phase(0.001)
        self.assertEqual((phase.attempted, len(phase.failures)), (1, 1))
        self.assertIn("simulated crash", phase.failures[0])


class StealScreening(unittest.TestCase):
    def phase(self, spans):
        """A finished phase with counter readings every 100 ns; of the
        host's CPU time, 25% is stolen between 100 and 200 and 10% between
        200 and 300."""
        phase = workloads.Phase(1.0)
        phase.started = 0
        phase.counters = [(0, 0, 0), (100, 0, 100), (200, 25, 200), (300, 35, 300),
                          (400, 35, 400)]
        for start, end in spans:
            phase.record(start, end)
        with mock.patch.object(workloads, "cpu_counters", return_value=(35, 400)):
            phase.finish()
        return phase

    def test_ops_under_steal_are_not_timed(self):
        phase = self.phase([(10, 90), (20, 95), (30, 99), (40, 99), (50, 99),
                            (110, 190), (310, 390)])
        ops, intervals, limit = phase.clean()
        self.assertEqual((ops, limit), ([0, 1, 2, 3, 4, 6], workloads.MAX_STEAL))
        # The intervals ending at 190 and at 390 both reach into the steal.
        self.assertEqual([op for op, _seconds in intervals], [0, 1, 2, 3, 4])

    def test_with_few_clean_ops_the_least_stolen_are_timed(self):
        phase = self.phase([(10, 90)] + [(110, 190)] * 3 + [(210, 290)] * 4)
        ops, _intervals, limit = phase.clean()
        self.assertEqual((ops, limit), ([0, 4, 5, 6, 7], 0.1))


class Spans(unittest.TestCase):
    def tree(self):
        t = tracer.Tracer()
        root = t.open("root", parent=None, op="op0", start=0)
        child = t.open("child", parent=root, start=10)
        grandchild = t.open("grandchild", parent=child, start=20)
        t.close(grandchild, end=30)
        t.close(child, end=50)
        shared = t.open("shared", parent=None, start=60)
        t.close(shared, end=80)
        root.adopted.append(shared)
        t.close(root, end=100)
        return t, root

    def test_blocking_path_sums_to_the_root(self):
        t, root = self.tree()
        kids = tracer.children_index(t.spans)
        path = tracer.blocking_path(root, kids)
        want = {"root": 40, "child": 30, "grandchild": 10, "shared": 20}
        self.assertEqual(set(path), set(want))
        for name, ns in want.items():
            self.assertAlmostEqual(path[name], ns / 1e6)
        self.assertAlmostEqual(tracer.self_ms(root, kids), 40 / 1e6)

    def test_chrome_trace_has_one_event_per_span(self):
        t, _root = self.tree()
        doc = tracer.chrome_trace(t.spans, {})
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        self.assertEqual(len(complete), len(t.spans))
        self.assertTrue(all(e["args"]["op"] == "op0" for e in complete
                            if e["name"] in ("root", "child", "grandchild")))

    def test_wrap_records_and_restores(self):
        class Box:
            def value(self, x):
                return x + 1

        t = tracer.Tracer()
        t.wrap(Box, "value", "box.value",
               closed=lambda span, a, k, r: span.attrs.update(result=r))
        self.assertEqual(Box().value(1), 2)
        t.uninstall()
        self.assertEqual(Box().value(1), 2)
        self.assertEqual([(s.name, s.attrs["result"]) for s in t.spans], [("box.value", 2)])


class Contract(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            self.bench = json.load(handle)

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(workloads.WORKLOADS))

    def test_every_per_layer_metric_has_a_mapping(self):
        self.assertEqual({m["name"] for m in self.bench["per_layer"]},
                         set(layers.CATALOG))

    def test_end_to_end_names(self):
        self.assertEqual([m["name"] for m in self.bench["end_to_end"]],
                         ["setup_s", "peak_rss_mb", "ops_per_s", "op_p50_ms", "op_tail_ms"])


if __name__ == "__main__":
    unittest.main()
