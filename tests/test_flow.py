import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrsync.errors import InvalidValueError, PathBudgetError
from corrsync.flow import (
    brute_force_paths,
    chain_dag,
    directed_flow_matrix,
    enumerate_paths,
)

from conftest import line_distances, random_euclidean_distances


class TestDirectedFlowMatrix:
    def test_l4_edge_set(self):
        D = line_distances([0.0, 1.0, 2.0, 3.0])
        flow = directed_flow_matrix(D, 0, 3)
        edges = {(a, b) for a in range(4) for b in range(4) if flow.F[a, b]}
        assert edges == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}

    def test_t3_only_direct_edge(self, t3_distances):
        flow = directed_flow_matrix(t3_distances, 0, 2)
        edges = {(a, b) for a in range(3) for b in range(3) if flow.F[a, b]}
        assert edges == {(0, 2)}

    def test_source_unique_source_target_unique_sink(self):
        rng = np.random.default_rng(11)
        D = random_euclidean_distances(rng, 12)
        flow = directed_flow_matrix(D, 2, 7)
        assert not flow.F[:, 2].any()
        assert not flow.F[7, :].any()

    def test_weights_match_edge_energies(self):
        rng = np.random.default_rng(5)
        D = random_euclidean_distances(rng, 8)
        flow = directed_flow_matrix(D, 0, 3, beta=2.0)
        for a in range(8):
            for b in range(8):
                if flow.F[a, b]:
                    assert flow.WF[a, b] == pytest.approx(np.exp(-2.0 * D[a, b] ** 2))
                else:
                    assert flow.WF[a, b] == 0.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_structural_invariants(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 16))
        D = random_euclidean_distances(rng, n)
        i, j = sorted(rng.choice(n, size=2, replace=False))
        flow = directed_flow_matrix(D, int(i), int(j))
        F = flow.F
        assert F[i, j], "direct edge must be admissible"
        assert not (F & F.T).any(), "antisymmetry"
        rev = directed_flow_matrix(D, int(j), int(i))
        assert np.array_equal(rev.F, F.T), "transpose-reversal"
        # a certificate of acyclicity: ordered by distance from i, every edge
        # points forward
        order = np.argsort(D[i], kind="stable").tolist()
        assert sorted(order) == list(range(n))
        pos = {v: k for k, v in enumerate(order)}
        for a in range(n):
            for b in range(n):
                if F[a, b]:
                    assert pos[a] < pos[b], "acyclic"


class TestEnumeratePaths:
    def test_l4_paths_and_energies(self):
        D = line_distances([0.0, 1.0, 2.0, 3.0])
        flow = directed_flow_matrix(D, 0, 3)
        recs = enumerate_paths(flow, lam=0.0, max_paths=100)
        got = {r.vertices: r.energy for r in recs}
        assert got == {
            (0, 1, 2, 3): pytest.approx(3.0),
            (0, 1, 3): pytest.approx(5.0),
            (0, 2, 3): pytest.approx(5.0),
            (0, 3): pytest.approx(9.0),
        }

    def test_l4_strict_threshold_drops_direct(self):
        D = line_distances([0.0, 1.0, 2.0, 3.0])
        flow = directed_flow_matrix(D, 0, 3)
        strict = enumerate_paths(flow, lam=0.02, max_paths=100, strict=True)
        assert [r.vertices for r in strict] == [(0, 1, 2, 3)]
        default = enumerate_paths(flow, lam=0.02, max_paths=100)
        assert [r.vertices for r in default] == [(0, 1, 2, 3), (0, 3)]

    def test_direct_path_weight_is_exact(self):
        D = line_distances([0.0, 1.0, 2.0, 3.0])
        flow = directed_flow_matrix(D, 0, 3)
        recs = enumerate_paths(flow, lam=0.02, max_paths=100)
        direct = [r for r in recs if r.vertices == (0, 3)][0]
        assert direct.weight == pytest.approx(np.exp(-9.0), rel=1e-15)

    def test_budget_error(self):
        D = line_distances([0.0, 1.0, 2.0, 3.0])
        flow = directed_flow_matrix(D, 0, 3)
        with pytest.raises(PathBudgetError):
            enumerate_paths(flow, lam=0.0, max_paths=2)

    @pytest.mark.parametrize("budget", [0, -5, 2.5, "10"])
    def test_budget_must_be_a_positive_integer(self, budget):
        flow = directed_flow_matrix(line_distances([0.0, 1.0, 2.0, 3.0]), 0, 3)
        named = (f"max_paths must be at least 1, got {budget}" if isinstance(budget, int)
                 else f"max_paths {budget!r} is not an integer")
        with pytest.raises(InvalidValueError, match=named):
            enumerate_paths(flow, max_paths=budget)
        assert len(enumerate_paths(flow, max_paths=4)) == 4

    @pytest.mark.parametrize("strict", [False, True])
    def test_rescued_direct_chain_keeps_its_lexicographic_position(self, strict):
        # pair (0, 2) of five points on a line: lam drops the direct chain
        # (energy 9) while kept chains leave the source through vertex 1,
        # below the target's index, and vertex 4, above it
        D = line_distances([0.0, 1.0, 3.0, 2.0, 1.5])
        flow = directed_flow_matrix(D, 0, 2)
        got = [r.vertices for r in enumerate_paths(flow, lam=0.02, strict=strict)]
        assert got == [r.vertices for r in brute_force_paths(D, 0, 2, lam=0.02, strict=strict)]
        rescued = [] if strict else [(0, 2)]
        assert got == [(0, 1, 3, 2), (0, 1, 4, 2), (0, 1, 4, 3, 2), *rescued, (0, 4, 3, 2)]

    @pytest.mark.parametrize(
        "coords, j",
        [([0.0, 1.0, 3.0, 2.0, 1.5], 2), ([0.0, 1.0, 2.0, 3.0], 3)],
        ids=["direct-inside", "direct-overflows"],
    )
    def test_budget_is_the_chain_count_at_positive_lambda(self, coords, j):
        # in the second case the rescued direct chain comes last, so it is the
        # chain that overflows a budget one short of the count
        flow = directed_flow_matrix(line_distances(coords), 0, j)
        count = len(enumerate_paths(flow, lam=0.02))
        assert len(enumerate_paths(flow, lam=0.02, max_paths=count)) == count
        with pytest.raises(PathBudgetError):
            enumerate_paths(flow, lam=0.02, max_paths=count - 1)
        assert len(enumerate_paths(flow, lam=0.02, max_paths=count - 1, strict=True)) == count - 1

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_budget_boundary_matches_brute_force_count(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 8))
        D = random_euclidean_distances(rng, n)
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        lam = float(rng.choice([0.0, 1e-3, 0.05, 0.3]))
        strict = bool(rng.integers(0, 2))
        count = len(brute_force_paths(D, i, j, lam=lam, strict=strict))
        flow = directed_flow_matrix(D, i, j)
        # a budget below 1 is out of range, whatever the chain count
        budget = max(count, 1)
        assert len(enumerate_paths(flow, lam=lam, max_paths=budget, strict=strict)) == count
        with pytest.raises(PathBudgetError if count > 1 else InvalidValueError):
            enumerate_paths(flow, lam=lam, max_paths=count - 1, strict=strict)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 8))
        D = random_euclidean_distances(rng, n)
        i, j = rng.choice(n, size=2, replace=False)
        lam = float(rng.choice([0.0, 1e-6, 1e-3, 0.5]))
        strict = bool(rng.integers(0, 2))
        flow = directed_flow_matrix(D, int(i), int(j))
        fast = enumerate_paths(flow, lam=lam, max_paths=10**6, strict=strict)
        slow = brute_force_paths(D, int(i), int(j), lam=lam, strict=strict)
        assert [r.vertices for r in fast] == [r.vertices for r in slow]
        for a, b in zip(fast, slow):
            assert abs(a.weight - b.weight) <= 1e-12
            assert abs(a.energy - b.energy) <= 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_energy_and_weight_are_step_sums_in_chain_order(self, seed):
        # each record carries exactly the left-to-right sum of squared steps
        # and product of WF entries along its vertices, bit for bit
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 10))
        D = random_euclidean_distances(rng, n) * rng.uniform(0.2, 1.5)
        i, j = rng.choice(n, size=2, replace=False)
        lam = float(rng.choice([0.0, 1e-3, 0.05, 0.3]))
        strict = bool(rng.integers(0, 2))
        flow = directed_flow_matrix(D, int(i), int(j))
        for rec in enumerate_paths(flow, lam=lam, max_paths=10**6, strict=strict):
            energy, weight = 0.0, 1.0
            for a, b in zip(rec.vertices, rec.vertices[1:]):
                energy += float(D[a, b] * D[a, b])
                weight *= float(flow.WF[a, b])
            assert (rec.energy, rec.weight) == (energy, weight)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_trie_nodes_are_the_chain_prefixes_in_preorder(self, seed):
        # one node per distinct chain prefix, in the order the chains first
        # reach it, coded depth * n**2 + a * n + b by its last edge (a, b): a
        # branch the threshold cuts off before the target leaves no node
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 8))
        D = random_euclidean_distances(rng, n)
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        lam = float(rng.choice([0.0, 1e-6, 1e-3, 0.5]))
        trie = enumerate_paths(directed_flow_matrix(D, i, j), lam=lam)
        chains = [r.vertices for r in brute_force_paths(D, i, j, lam=lam)]
        prefixes = dict.fromkeys(c[: d + 1] for c in chains for d in range(1, len(c)))
        assert trie.codes.tolist() == [(len(p) - 1) * n * n + p[-2] * n + p[-1] for p in prefixes]
        assert trie.leaves.tolist() == [p[-1] == j for p in prefixes]

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_vertices_that_reach_the_target_are_column_j_of_F(self, seed, duplicates):
        # enumerate_paths takes its live set from one column of F: along a
        # chain D[i, .] rises and D[j, .] falls, so a vertex that reaches j
        # has a direct edge into it. Coinciding shapes, as allow_duplicates
        # admits, put zero distances off the diagonal
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        pts = rng.normal(size=(n, 2))
        if duplicates:
            pts[rng.integers(0, n, size=n // 2)] = pts[rng.integers(0, n, size=n // 2)]
        D = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1))
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        F = directed_flow_matrix(D, i, j).F
        reach, stack = {j}, [j]
        while stack:
            for u in np.flatnonzero(F[:, stack.pop()]).tolist():
                if u not in reach:
                    reach.add(u)
                    stack.append(u)
        assert reach == set(np.flatnonzero(F[:, j]).tolist()) | {j}

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.9))
    @settings(max_examples=30, deadline=None)
    def test_pruning_is_exact(self, seed, lam):
        # thresholding raw weights commutes with enumeration: the lam run
        # equals the lam=0 run filtered after the fact
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 8))
        D = random_euclidean_distances(rng, n)
        i, j = rng.choice(n, size=2, replace=False)
        flow = directed_flow_matrix(D, int(i), int(j))
        full = enumerate_paths(flow, lam=0.0, max_paths=10**6)
        pruned = enumerate_paths(flow, lam=lam, max_paths=10**6)
        kept = [
            r.vertices
            for r in full
            if r.weight >= lam or len(r.vertices) == 2
        ]
        assert [r.vertices for r in pruned] == sorted(kept)



class TestChainDag:
    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_path_sums_match_the_chains(self, seed, duplicates):
        # the count is the brute-force chain count, and the floor and peak
        # are exactly the lightest and heaviest weights the DFS multiplies;
        # preds holds every chain edge, its keys in ascending D[i, .]
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        pts = rng.normal(size=(n, 2))
        if duplicates:
            pts[rng.integers(0, n, size=n // 2)] = pts[rng.integers(0, n, size=n // 2)]
        D = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1)) * rng.uniform(0.2, 3.0)
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        flow = directed_flow_matrix(D, i, j, beta=float(rng.uniform(0.1, 5.0)))
        dag = chain_dag(flow)
        chains = [r.vertices for r in brute_force_paths(D, i, j)]
        assert dag.count == len(chains)
        if not chains:
            assert (dag.preds, dag.floor, dag.peak) == ({}, np.inf, 0.0)
            return
        trie = enumerate_paths(flow)
        assert dag.floor == min(trie.weights)
        assert dag.peak == max(trie.weights)
        edges = {(a, b) for c in chains for a, b in zip(c, c[1:])}
        assert {(int(a), b) for b, us in dag.preds.items() for a in us} == edges
        assert list(dag.preds) == sorted(dag.preds, key=lambda v: D[i, v])
        assert list(dag.preds)[-1] == j

    @given(st.integers(0, 2**32 - 1), st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_truncated_trie_is_the_first_chains(self, seed, budget):
        # past the budget, truncate returns the trie of the first budget
        # chains: the full trie's nodes up to that chain's leaf
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 10))
        D = random_euclidean_distances(rng, n)
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        lam = float(rng.choice([0.0, 1e-3, 0.05]))
        strict = bool(rng.integers(0, 2))
        flow = directed_flow_matrix(D, i, j)
        full = enumerate_paths(flow, lam=lam, strict=strict)
        got = enumerate_paths(flow, lam=lam, max_paths=budget, strict=strict, truncate=True)
        if len(full) <= budget:
            assert got.complete and got.codes.tolist() == full.codes.tolist()
            return
        assert not got.complete and got.weights == full.weights[:budget]
        stop = int(np.flatnonzero(full.leaves)[budget - 1]) + 1
        assert got.codes.tolist() == full.codes[:stop].tolist()
        assert [r.vertices for r in got] == [r.vertices for r in full][:budget]

    def test_count_is_exact_past_int64(self):
        # 70 shapes on a line: every chain from the first to the last is a
        # subset of the 68 between them, 2**68 chains
        flow = directed_flow_matrix(line_distances(np.arange(70.0)), 0, 69)
        assert chain_dag(flow).count == 2**68
