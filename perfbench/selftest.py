"""Self-tests of the benchmark: its checks catch wrong outputs, tracing
changes no output, and the same seed gives the same inputs.

    python3 perfbench/selftest.py

Runs in about half a minute on small slices of each workload.
"""

from __future__ import annotations

import dataclasses
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, ring_specs  # noqa: E402

LIB = run.import_package()


def build(name, seed=1):
    wl = WORKLOADS[name](LIB, seed)
    wl.prepare()
    return wl


class Faulty:
    """A workload whose op output passes through ``tamper`` before checking."""

    def __init__(self, wl, items, tamper):
        self.wl = wl
        self.items = items
        self.tamper = tamper
        self.name = wl.name

    def run(self, item):
        return self.tamper(item, self.wl.run(item))

    def __getattr__(self, attr):
        return getattr(self.wl, attr)


class ChecksCountFailures(unittest.TestCase):
    def assert_fails(self, faulty, expected):
        phase = run.measure(faulty, 0)
        self.assertEqual(len(phase.latencies), len(faulty.items))
        self.assertEqual(len(phase.failures), expected, phase.failures)

    def test_wrong_class_count(self):
        wl = build("census")

        def tamper(item, out):
            return [dataclasses.replace(r, count_up_to_iso=r.count_up_to_iso + 1)
                    if r.order == 6 else r for r in out]

        self.assert_fails(Faulty(wl, wl.items, tamper), 1)

    def test_census_checked_once_then_compared(self):
        wl = build("census")
        self.assert_fails(Faulty(wl, wl.items, lambda item, out: out), 0)
        self.assertIsNotNone(wl.checked)
        self.assert_fails(Faulty(wl, wl.items, lambda item, out: out[:-1]), 1)

    def test_permutation_that_does_not_carry_the_tables(self):
        wl = build("iso")
        item = next(it for it in wl.items if it.spec == "example-2.6:k=3")
        self.assertEqual(oracle.automorphisms(*item.left), 1)

        def tamper(item, perm):
            perm = list(perm)
            perm[1], perm[2] = perm[2], perm[1]
            return tuple(perm)

        self.assert_fails(Faulty(wl, [item], tamper), 1)

    def test_isomorphism_claimed_for_a_negative(self):
        wl = build("iso")
        item = next(it for it in wl.items if it.right is None)
        self.assert_fails(
            Faulty(wl, [item], lambda item, out: tuple(range(item.order))), 1)

    def test_fail_verdict(self):
        wl = build("catalog")

        def tamper(item, report):
            (cid, iid, res), *rest = report.results
            failed = dataclasses.replace(res, status="fail", witness=0)
            return dataclasses.replace(report, results=[(cid, iid, failed)]
                                       + rest)

        self.assert_fails(Faulty(wl, wl.items[:3], tamper), 3)

    def test_raised_exception(self):
        wl = build("rings")

        def tamper(item, out):
            if item == wl.items[1]:
                raise RuntimeError("injected")
            return out

        self.assert_fails(Faulty(wl, wl.items[:4], tamper), 1)

    def test_all_workloads_pass_on_a_slice(self):
        for name in WORKLOADS:
            wl = build(name)
            items = [it for it in wl.items
                     if name != "iso" or it.order <= 32][:12]
            with self.subTest(workload=name):
                self.assert_fails(Faulty(wl, items, lambda item, out: out), 0)


class TracingChangesNothing(unittest.TestCase):
    def test_traced_outputs_equal_untraced(self):
        for name in WORKLOADS:
            wl = build(name)
            items = [it for it in wl.items
                     if name != "iso" or it.order <= 32][:12]
            sliced = Faulty(wl, items, lambda item, out: out)
            before = {m: dict(vars(getattr(LIB, m))) for m in run.MODULES}
            catalog = list(LIB.harness.CATALOG)
            plain = run.measure(sliced, 0)
            tracer = spans.Tracer()
            tracer.install(LIB)
            try:
                traced = run.measure(sliced, 0, tracer, expected=plain.first)
            finally:
                tracer.uninstall()
            with self.subTest(workload=name):
                self.assertEqual(plain.failures + traced.failures, [])
                self.assertEqual(len(plain.first), len(items))
                self.assertGreater(len(tracer.spans), len(items))
                self.assertEqual(tracer.absent, [])
                self.assertEqual(LIB.harness.CATALOG, catalog)
                for m in run.MODULES:
                    self.assertEqual(vars(getattr(LIB, m)), before[m])

    def test_a_changed_output_is_caught(self):
        wl = build("rings")
        items = wl.items[:3]
        plain = run.measure(Faulty(wl, items, lambda item, out: out), 0)
        expected = dict(plain.first)
        expected[0] = ("changed",)
        again = run.measure(Faulty(wl, items, lambda item, out: out), 0,
                            expected=expected)
        self.assertEqual(len(again.failures), 1)


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for name, cls in WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(cls(LIB, 7).inputs_bytes(),
                                 cls(LIB, 7).inputs_bytes())
                if name != "census":
                    self.assertNotEqual(cls(LIB, 7).inputs_bytes(),
                                        cls(LIB, 8).inputs_bytes())

    def test_inputs_match_the_cli_corpora(self):
        self.assertEqual(ring_specs(),
                         [iid for iid, _ in LIB.harness.default_ring_corpus()])
        catalog = WORKLOADS["catalog"](LIB, 1)
        self.assertEqual(len(catalog.corpus.posemirings), 202)
        self.assertEqual(len(catalog.corpus.pairs), 6)
        self.assertEqual(len(catalog.items), 208)


class Oracle(unittest.TestCase):
    def test_tail_percentile_keeps_ten_samples_beyond(self):
        for n in (1, 39, 40, 100, 199, 200, 1000, 2000, 10000):
            p = oracle.tail_percentile(n)
            values = list(range(n))
            beyond = sum(v > oracle.percentile(values, p) for v in values)
            self.assertTrue(beyond >= 10 or p == 50, (n, p, beyond))

    def test_brute_force_counts(self):
        bool3 = LIB.constructions.boolean_power(3)
        self.assertEqual(oracle.automorphisms(bool3.add, bool3.mul), 6)
        self.assertTrue(oracle.is_posemiring(bool3.add, bool3.mul))
        b2 = LIB.constructions.boolean_power(2)
        self.assertEqual(oracle.product(oracle.chain(0), oracle.chain(0)),
                         ([list(r) for r in b2.add], [list(r) for r in b2.mul]))


if __name__ == "__main__":
    unittest.main()
