"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  They check that the reference
catches a wrong verdict, that tracing changes no return value, that the
deterministic per-layer counts repeat exactly, and that BENCHMARK.json
names the metrics and workloads the harness reports.
"""
from __future__ import annotations

import itertools
import json
import sys
import unittest

import run
from tracer import PER_LAYER, TARGETS, Tracer
from workloads import WORKLOADS, Instance, digest, run_instance

sys.path.insert(0, str(run.SRC))


def setup_of(name: str, seed: int = 0) -> tuple[run.Program, dict[str, Instance], dict, list]:
    wl = WORKLOADS[name]
    reference = run.load_reference(name)
    prog = run.load_program()
    pool = wl.pool(prog, seed)
    costs = {key: entry["cost_ms"] for key, entry in reference.items()}
    return prog, pool, reference, wl.strata(pool, costs)


class ReferenceTests(unittest.TestCase):
    def test_tampered_digest_counts_as_failure(self) -> None:
        prog, pool, reference, _ = setup_of("hermitian")
        keys = ["d2/s0", "d3/s1"]
        self.assertEqual(run.run_batch(prog, pool, reference, [keys]).failures, [])
        tampered = {key: dict(entry) for key, entry in reference.items()}
        old = tampered["d3/s1"]["digest"]
        tampered["d3/s1"]["digest"] = ("1" if old[0] == "0" else "0") + old[1:]
        batch = run.run_batch(prog, pool, tampered, [keys])
        self.assertEqual([key for key, _ in batch.failures], ["d3/s1"])
        self.assertEqual(batch.attempted, 2)

    def test_raising_instance_counts_as_failure(self) -> None:
        prog, pool, reference, _ = setup_of("sasaki")
        pool = dict(pool, broken=Instance("p0.2/s1", "sasaki", '{"elements": 3}'))
        batch = run.run_batch(prog, pool, reference, [["p0.2/s1", "broken"]])
        self.assertEqual([key for key, _ in batch.failures], ["broken"])

    def test_reference_covers_every_pool_entry(self) -> None:
        for name, wl in WORKLOADS.items():
            with self.subTest(workload=name):
                _, pool, reference, strata = setup_of(name)
                self.assertLessEqual({inst.ref for inst in pool.values()}, set(reference))
                drawn = set(itertools.chain.from_iterable(strata)) | set(wl.warmup)
                self.assertLessEqual(drawn, set(pool))
                self.assertTrue(all(strata), "every stratum has members")

    def test_same_seed_same_inputs(self) -> None:
        wl = WORKLOADS["finch"]
        prog, pool, _, strata = setup_of("finch", seed=3)
        self.assertEqual(wl.pool(run.load_program(), 3), pool)
        self.assertNotEqual(wl.pool(prog, 4), pool)
        first = list(itertools.islice(wl.rounds(3, strata), 3))
        self.assertEqual(first, list(itertools.islice(wl.rounds(3, strata), 3)))

    def test_seeds_of_opposite_parity_draw_disjoint_inputs(self) -> None:
        for name, wl in WORKLOADS.items():
            with self.subTest(workload=name):
                _, _, _, strata = setup_of(name)
                shared = {group[0] for group in strata if len(group) == 1}
                drawn = [
                    set(itertools.chain.from_iterable(itertools.islice(wl.rounds(seed, strata), 200)))
                    for seed in (6, 9)
                ]
                self.assertEqual(drawn[0] & drawn[1], shared)
                self.assertEqual(drawn[0] | drawn[1], set(itertools.chain.from_iterable(strata)))


class WrapperTests(unittest.TestCase):
    SAMPLES = {
        "finch": ["mo4#1", "k3#2"],
        "sasaki": ["p0.2/s3", "p0.5/s7", "p0.8/s1"],
        "survey": ["oset/n7/p0.5/s2", "oset/n12/p0.7/s1", "oml/hs23", "oml/MO4", "golden"],
        "hermitian": ["d2/s5", "d4/s9"],
    }

    def test_wrappers_leave_return_values_unchanged(self) -> None:
        for name, keys in self.SAMPLES.items():
            with self.subTest(workload=name):
                prog, pool, _, _ = setup_of(name)
                plain = [digest(run_instance(prog, pool[key])) for key in keys]
                x = prog.corpus.random_orthoset(10, 0.5, 1)
                fam = x.orthoclosed_family()
                direct = [x.perp(fam[3]), x.closure(fam[2]), fam,
                          [prog.ok.find_sasaki_map(x, a) for a in fam[:6]]]
                tracer = Tracer()
                tracer.install()
                try:
                    traced = [digest(run_instance(prog, pool[key])) for key in keys]
                    fam2 = x.orthoclosed_family()
                    again = [x.perp(fam[3]), x.closure(fam[2]), fam2,
                             [prog.ok.find_sasaki_map(x, a) for a in fam[:6]]]
                finally:
                    tracer.uninstall()
                self.assertEqual(traced, plain)
                self.assertEqual(again, direct)
                self.assertGreater(sum(tracer.calls.values()), 0)

    def test_uninstall_restores_every_binding(self) -> None:
        prog = run.load_program()
        modules = {n: m for n, m in sys.modules.items() if n.startswith("orthokit")}
        before = {(n, k): v for n, m in modules.items() for k, v in vars(m).items()}
        classes = [prog.ok.Orthoset, prog.ok.OrthoLattice]
        methods_before = [dict(vars(c)) for c in classes]
        tracer = Tracer()
        tracer.install()
        self.assertIsNot(prog.ok.finch_report, before[("orthokit", "finch_report")])
        self.assertIsNot(sys.modules["orthokit.corpus"].is_sasaki_space,
                         before[("orthokit.corpus", "is_sasaki_space")])
        tracer.uninstall()
        after = {(n, k): v for n, m in modules.items() for k, v in vars(m).items()}
        self.assertEqual(after.keys(), before.keys())
        self.assertTrue(all(after[k] is before[k] for k in before))
        self.assertEqual([dict(vars(c)) for c in classes], methods_before)

    def test_every_target_resolves(self) -> None:
        prog = run.load_program()
        for modname, attr, _layer, _span in TARGETS:
            owner = sys.modules[modname]
            for part in attr.split("."):
                owner = getattr(owner, part)
            self.assertTrue(callable(owner), f"{modname}.{attr}")


class DeterminismTests(unittest.TestCase):
    COUNTS = ("sasaki.search.nodes", "sasaki.refutation.entries",
              "orthoset.family.sets", "lattice.projection.calls")

    def traced_counts(self, name: str, rounds: int) -> dict[str, float]:
        prog, pool, reference, strata = setup_of(name, seed=5)
        schedule = list(itertools.islice(WORKLOADS[name].rounds(5, strata), rounds))
        tracer = Tracer()
        tracer.install()
        try:
            batch = run.run_batch(prog, pool, reference, schedule, tracer=tracer)
        finally:
            tracer.uninstall()
        self.assertEqual(batch.failures, [])
        values = tracer.layer_metrics(1.0)
        return {key: values[key] for key in self.COUNTS}

    def test_counts_repeat_exactly(self) -> None:
        for name, rounds in (("sasaki", 1), ("survey", 2)):
            with self.subTest(workload=name):
                first = self.traced_counts(name, rounds)
                self.assertEqual(first, self.traced_counts(name, rounds))
                self.assertGreater(first["orthoset.family.sets"], 0)
        sasaki = self.traced_counts("sasaki", 1)
        self.assertGreater(sasaki["sasaki.search.nodes"], 0)
        self.assertGreater(sasaki["sasaki.refutation.entries"], 0)
        self.assertGreater(self.traced_counts("survey", 1)["lattice.projection.calls"], 0)


class BenchmarkFileTests(unittest.TestCase):
    def test_names_match_the_harness(self) -> None:
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [(name, unit, better) for name, unit, better, _ in PER_LAYER],
        )


if __name__ == "__main__":
    unittest.main()
