"""Tests for the fixed-angle table."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.exceptions import FixedAngleLookupError
from repro.graphs.generators import random_regular_graph
from repro.graphs.graph import Graph
from repro.qaoa.analytic import p1_optimal_angles_regular
from repro.qaoa.fixed_angles import (
    MAX_COVERED_DEGREE,
    MIN_COVERED_DEGREE,
    FixedAngleTable,
    fixed_angles_for_graph,
    lookup_fixed_angles,
)
from repro.qaoa.simulator import QAOASimulator


@pytest.fixture(scope="module")
def table():
    # small ensembles keep the transfer-angle optimization fast in tests
    return FixedAngleTable(
        ensemble_size=3, ensemble_nodes=8, optimizer_iters=60, restarts=2, rng=1
    )


def p1_ensemble_ratio(entry) -> float:
    """Mean p=1 approximation ratio of ``entry``'s angles over three random
    8-node regular graphs of its degree (the table never simulates p=1)."""
    rng = np.random.default_rng(1)
    return float(np.mean([
        QAOASimulator(random_regular_graph(8, entry.degree, rng=rng))
        .approximation_ratio(list(entry.gammas), list(entry.betas))
        for _ in range(3)
    ]))


class TestCoverage:
    def test_window(self, table):
        assert table.covers(3)
        assert table.covers(11)
        assert not table.covers(2)
        assert not table.covers(12)

    def test_lookup_outside_raises(self, table):
        with pytest.raises(FixedAngleLookupError):
            table.lookup(2)
        with pytest.raises(FixedAngleLookupError):
            table.lookup(14)

    def test_constants_match_paper_statement(self):
        assert MIN_COVERED_DEGREE == 3
        assert MAX_COVERED_DEGREE == 11


class TestP1Entries:
    def test_p1_matches_closed_form(self, table):
        entry = table.lookup(3, p=1)
        gamma, beta = p1_optimal_angles_regular(3)
        assert entry.gammas[0] == pytest.approx(gamma)
        assert entry.betas[0] == pytest.approx(beta)

    def test_p1_mean_ratio_reasonable(self, table):
        entry = table.lookup(3, p=1)
        # fixed-angle conjecture: cubic graphs achieve ~0.69+ at p=1
        assert p1_ensemble_ratio(entry) > 0.6

    def test_cached(self, table):
        assert table.lookup(3, p=1) is table.lookup(3, p=1)

    def test_p1_lookup_never_simulates(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("p=1 lookup simulated")

        monkeypatch.setattr(
            "repro.qaoa.fixed_angles.QAOASimulator", refuse
        )
        fresh = FixedAngleTable()
        for degree in range(MIN_COVERED_DEGREE, MAX_COVERED_DEGREE + 1):
            entry = fresh.lookup(degree, p=1)
            gamma, beta = p1_optimal_angles_regular(degree)
            assert entry.gammas == (gamma,)
            assert entry.betas == (beta,)
            assert entry.mean_ratio is None


class TestConcurrentLookup:
    def test_first_lookups_compute_once(self, monkeypatch):
        """Eight threads racing for one uncached entry share one compute."""
        tiny = FixedAngleTable(
            ensemble_size=2, ensemble_nodes=6, optimizer_iters=3,
            restarts=1, rng=5,
        )
        compute = tiny._compute
        calls = []

        def slow_compute(degree, p):
            calls.append((degree, p))
            time.sleep(0.05)  # widen the window a second compute would use
            return compute(degree, p)

        monkeypatch.setattr(tiny, "_compute", slow_compute)
        start = threading.Barrier(8)
        entries = [None] * 8

        def worker(i):
            start.wait(timeout=10.0)
            entries[i] = tiny.lookup(3, p=2)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert calls == [(3, 2)]
        assert all(entry is entries[0] for entry in entries)
        assert entries[0].p == 2


class TestLookupOrder:
    """An entry depends on (table seed, degree, p), not on history."""

    @staticmethod
    def tiny(rng=5):
        return FixedAngleTable(
            ensemble_size=2, ensemble_nodes=8, optimizer_iters=20,
            restarts=2, rng=rng,
        )

    def test_entry_is_the_same_first_or_after_another(self):
        first = self.tiny().lookup(3, p=2)
        table = self.tiny()
        table.lookup(4, p=2)
        table.lookup(5, p=3)
        assert table.lookup(3, p=2) == first

    def test_entries_follow_the_table_seed(self):
        assert self.tiny(rng=5).lookup(3, p=2) != self.tiny(rng=6).lookup(3, p=2)
        seeded = FixedAngleTable(rng=np.random.default_rng(9))
        assert 0 <= seeded.seed < 2**63

    def test_p1_entries_are_unchanged(self):
        table = self.tiny()
        table.lookup(4, p=2)
        for degree in range(MIN_COVERED_DEGREE, MAX_COVERED_DEGREE + 1):
            gamma, beta = p1_optimal_angles_regular(degree)
            entry = table.lookup(degree, p=1)
            assert (entry.gammas, entry.betas) == ((gamma,), (beta,))

    def test_default_table_is_built_once_under_concurrency(self, monkeypatch):
        import repro.qaoa.fixed_angles as fixed_angles

        monkeypatch.setattr(fixed_angles, "_DEFAULT_TABLE", None)
        built = []

        class CountingTable(FixedAngleTable):
            def __init__(self, *args, **kwargs):
                built.append(1)
                time.sleep(0.05)  # widen the window a second build would use
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(fixed_angles, "FixedAngleTable", CountingTable)
        start = threading.Barrier(8)
        tables = [None] * 8

        def worker(i):
            start.wait(timeout=10.0)
            tables[i] = fixed_angles.default_table()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert built == [1]
        assert all(table is tables[0] for table in tables)


class TestTransferAngles:
    def test_p2_beats_p1_on_ensemble(self, table):
        p1 = table.lookup(3, p=1)
        p2 = table.lookup(3, p=2)
        assert p2.mean_ratio >= p1_ensemble_ratio(p1) - 0.02
        assert len(p2.gammas) == 2

    def test_transfer_angles_generalize(self, table):
        # angles optimized on the ensemble should beat random angles on a
        # fresh graph of the same degree
        entry = table.lookup(3, p=2)
        graph = random_regular_graph(10, 3, rng=77)
        simulator = QAOASimulator(graph)
        fixed = simulator.approximation_ratio(
            np.asarray(entry.gammas), np.asarray(entry.betas)
        )
        rng = np.random.default_rng(5)
        random_ratios = [
            simulator.approximation_ratio(
                rng.uniform(0, 2 * np.pi, 2), rng.uniform(0, np.pi, 2)
            )
            for _ in range(10)
        ]
        assert fixed > np.mean(random_ratios)


class TestGraphLookup:
    def test_for_regular_graph(self, petersen_like):
        entry = fixed_angles_for_graph(petersen_like, p=1)
        assert entry.degree == 3

    def test_rejects_irregular(self):
        with pytest.raises(FixedAngleLookupError, match="regular"):
            fixed_angles_for_graph(Graph.star(5), p=1)

    def test_module_level_lookup(self):
        entry = lookup_fixed_angles(3, p=1)
        assert entry.p == 1
