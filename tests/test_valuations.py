"""Valuation checking, colorability, certified maximization, oracle equivalence."""

import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksembed import valuations
from ksembed.configuration import (
    configuration_from_vectors,
    ingest_rays,
    mub_bases,
    subconfiguration,
)
from ksembed.valuations import (
    InconsistentCertificates,
    ModelKind,
    OptimizationResult,
    SizeMismatch,
    SolveStats,
    Valuation,
    _Problem,
    _make_problem,
    _solve,
    check_valuation,
    covered_contexts,
    certificate_to_text,
    global_sum_bounds,
    ks_colorable,
    maximize_covered_contexts,
    replay_certificate,
)


def single_context():
    return configuration_from_vectors(mub_bases()[0])


def two_disjoint_contexts():
    b = mub_bases()
    return configuration_from_vectors(b[0] + b[1])


def brute_force(cfg):
    """Exhaustive 2^N oracle, vectorized: REAL_EMBEDDED admissibility from the
    edge list, covered counts from the context list."""
    n = cfg.n_rays
    masks = np.arange(1 << n, dtype=np.uint32)
    admissible = np.ones(masks.shape, dtype=bool)
    for i, j in cfg.edges:
        admissible &= ~(((masks >> i) & 1) & ((masks >> j) & 1)).astype(bool)
    covered = np.zeros(masks.shape, dtype=np.int32)
    all_exactly_one = np.ones(masks.shape, dtype=bool)
    for ctx in cfg.contexts:
        i, j, k = ctx.ray_ids
        s = ((masks >> i) & 1) + ((masks >> j) & 1) + ((masks >> k) & 1)
        covered += (s == 1).astype(np.int32)
        all_exactly_one &= s == 1
    colorable = bool((admissible & all_exactly_one).any())
    best = int(covered[admissible].max())
    return colorable, best


def scan_solve(problem):
    """Reference engine: the same DFS with propagation by a full scan of the
    must-cover contexts at every step, forcing as it goes in must_cover
    order."""
    adj = problem.adj
    must = [problem.contexts[ci] for ci in problem.must_cover]
    budget = problem.budget
    full = (1 << problem.n) - 1
    stats = SolveStats()

    def assign_one(ones, zeros, r):
        bit = 1 << r
        if zeros & bit or adj[r] & ones:
            return None
        return ones | bit, zeros | adj[r]

    def propagate(ones, zeros):
        while True:
            uncovered = 0
            for i, j, k in must:
                if ((ones >> i) | (ones >> j) | (ones >> k)) & 1:
                    continue
                zc = ((zeros >> i) & 1) + ((zeros >> j) & 1) + ((zeros >> k) & 1)
                if zc == 3:
                    uncovered += 1
                    if uncovered > budget:
                        return None
            if uncovered < budget:
                return ones, zeros
            forced = False
            for i, j, k in must:
                if ((ones >> i) | (ones >> j) | (ones >> k)) & 1:
                    continue
                zc = ((zeros >> i) & 1) + ((zeros >> j) & 1) + ((zeros >> k) & 1)
                if zc == 2:
                    third = i if not (zeros >> i) & 1 else (j if not (zeros >> j) & 1 else k)
                    st = assign_one(ones, zeros, third)
                    if st is None:
                        return None
                    ones, zeros = st
                    stats.propagations += 1
                    forced = True
            if not forced:
                return ones, zeros

    stack = [(0, 0)]
    while stack:
        st = propagate(*stack.pop())
        if st is None:
            continue
        ones, zeros = st
        stats.nodes += 1
        free = full & ~ones & ~zeros
        if not free:
            return ones, stats
        r = next(r for r in problem.order if (free >> r) & 1)
        stack.append((ones, zeros | (1 << r)))
        st1 = assign_one(ones, zeros, r)
        if st1 is not None:
            stack.append(st1)
    return None, stats


@st.composite
def small_problems(draw):
    """Up to 30 rays; contexts are cliques, plus random extra edges; a random
    must-cover subset in random order, a random branching order, budget 0-3."""
    n = draw(st.integers(3, 30))
    rays = st.integers(0, n - 1)
    contexts = draw(st.lists(
        st.lists(rays, min_size=3, max_size=3, unique=True).map(tuple),
        min_size=1, max_size=16))
    extra = draw(st.lists(st.tuples(rays, rays).filter(lambda e: e[0] != e[1]),
                          max_size=2 * n))
    adj = [0] * n
    for i, j in [(a, b) for ctx in contexts for a in ctx for b in ctx if a != b] + extra:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    must = draw(st.lists(st.integers(0, len(contexts) - 1), unique=True))
    return _Problem(
        n=n,
        adj=tuple(adj),
        contexts=tuple(contexts),
        must_cover=tuple(must),
        budget=draw(st.integers(0, 3)),
        order=tuple(draw(st.permutations(range(n)))),
    )


def solve_counts(solver, problem):
    mask, stats = solver(problem)
    return mask, stats.nodes, stats.propagations


class TestEngineAgainstScan:
    @given(small_problems())
    @settings(max_examples=300, deadline=None)
    def test_same_search_as_full_scan(self, problem):
        assert solve_counts(_solve, problem) == solve_counts(scan_solve, problem)

    def test_force_that_opens_an_earlier_context(self):
        # must_cover positions: Q = (3, 4, 5) at 0, P = (0, 1, 2) at 1,
        # R = (6, 7, 8) at 2, S = (9, 10, 11) at 3.  Ray 12, branched first,
        # zeroes 0, 1, 3, 6, 7, 9, so P and R are open two-zero contexts.
        # Forcing 2 (P) zeroes 4 and opens Q below the sweep; the sweep goes
        # on to force 8 (R), which zeroes 5 (Q is now all-zero) and 10, and
        # then 11 (S).  Only the next sweep sees Q, over budget: 3 forces.
        # Taking Q right after P would force 5, zero 8 and stop at 2 forces.
        contexts = ((3, 4, 5), (0, 1, 2), (6, 7, 8), (9, 10, 11))
        edges = [(a, b) for ctx in contexts for a in ctx for b in ctx if a < b]
        edges += [(2, 4), (5, 8), (8, 10)] + [(12, r) for r in (0, 1, 3, 6, 7, 9)]
        adj = [0] * 13
        for i, j in edges:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        problem = _Problem(
            n=13,
            adj=tuple(adj),
            contexts=contexts,
            must_cover=(0, 1, 2, 3),
            budget=0,
            order=(12,) + tuple(range(12)),
        )
        # the 12 = 0 branch then covers every context with 0, 3, 6, 9 and
        # no forcing: 6 nodes, and the 3 forces of the failed 12 = 1 branch
        assert solve_counts(scan_solve, problem) == (585, 6, 3)
        assert solve_counts(_solve, problem) == (585, 6, 3)


class TestEngineProblem:
    def test_must_cover_is_a_set(self, full_config):
        base = _make_problem(full_config, range(130), budget=0)
        rng = random.Random(6)
        for must, budget in ((range(130), 2), (sorted(rng.sample(range(130), 100)), 0)):
            shuffled = list(must)
            rng.shuffle(shuffled)
            # hand-built, so it builds its own tables
            permuted = _Problem(n=base.n, adj=base.adj, contexts=base.contexts,
                                must_cover=shuffled + shuffled[:5], budget=budget,
                                order=base.order)
            assert permuted.must_cover == tuple(must)
            assert solve_counts(_solve, permuted) == solve_counts(
                _solve, replace(base, must_cover=must, budget=budget))

    def test_tables_built_once_per_problem(self, full_config, monkeypatch):
        calls = {"problems": 0, "tables": 0, "solves": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(valuations, "_make_problem",
                            counting("problems", valuations._make_problem))
        monkeypatch.setattr(valuations, "_build_tables",
                            counting("tables", valuations._build_tables))
        monkeypatch.setattr(valuations, "_solve", counting("solves", valuations._solve))
        opt = maximize_covered_contexts(full_config)
        assert replay_certificate(full_config, opt)
        # colourability, escalation to budget 2, 130 + 131 refutations
        assert calls["solves"] == 264
        assert 0 < calls["tables"] <= calls["problems"]

    def test_replacing_the_rays_rebuilds_the_tables(self, full_config):
        base = _make_problem(full_config, range(130), budget=0)
        reordered = replace(base, order=base.order[::-1])
        assert reordered.tables is not base.tables
        fresh = _Problem(n=base.n, adj=base.adj, contexts=base.contexts,
                         must_cover=range(130), budget=0, order=base.order[::-1])
        assert solve_counts(_solve, reordered) == solve_counts(_solve, fresh)


class TestCheckValuation:
    def test_all_zero_real_embedded_admissible(self, full_config):
        violations = check_valuation(
            full_config, Valuation.zeros(165), ModelKind.REAL_EMBEDDED
        )
        assert violations == []

    def test_all_zero_complex_maximal_130_violations(self, full_config):
        violations = check_valuation(
            full_config, Valuation.zeros(165), ModelKind.COMPLEX_MAXIMAL
        )
        assert len(violations) == 130
        assert all(v.kind == "context_uncovered" for v in violations)

    def test_adjacent_ones_violate_both_models(self, full_config):
        i, j = sorted(full_config.edges)[0]
        bits = [0] * 165
        bits[i] = bits[j] = 1
        for model in ModelKind:
            violations = check_valuation(full_config, Valuation(tuple(bits)), model)
            assert any(v.kind == "exclusivity" and v.where == (i, j)
                       for v in violations)

    def test_context_sum_above_one_reported(self):
        cfg = single_context()
        bits = [1, 1, 0]
        violations = check_valuation(cfg, Valuation(tuple(bits)),
                                     ModelKind.REAL_EMBEDDED)
        kinds = {v.kind for v in violations}
        assert "exclusivity" in kinds and "context_sum_above_one" in kinds

    def test_size_mismatch(self, full_config):
        with pytest.raises(SizeMismatch):
            check_valuation(full_config, Valuation.zeros(10),
                            ModelKind.REAL_EMBEDDED)

    def test_complex_admissible_implies_real_admissible(self):
        cfg = two_disjoint_contexts()
        rng = random.Random(12)
        for _ in range(200):
            bits = tuple(rng.randint(0, 1) for _ in range(cfg.n_rays))
            val = Valuation(bits)
            complex_ok = not check_valuation(cfg, val, ModelKind.COMPLEX_MAXIMAL)
            real_ok = not check_valuation(cfg, val, ModelKind.REAL_EMBEDDED)
            if complex_ok:
                assert real_ok


class TestColorability:
    def test_single_context_sat(self):
        cfg = single_context()
        res = ks_colorable(cfg)
        assert res.satisfiable
        assert res.witness is not None
        assert check_valuation(cfg, res.witness, ModelKind.COMPLEX_MAXIMAL) == []
        assert sum(res.witness.bits) == 1

    def test_two_disjoint_contexts_sat(self):
        cfg = two_disjoint_contexts()
        res = ks_colorable(cfg)
        assert res.satisfiable
        assert sum(res.witness.bits) == 2

    def test_full_configuration_unsat(self, full_config):
        res = ks_colorable(full_config)
        assert not res.satisfiable
        assert res.witness is None
        assert res.nodes > 0

    def test_deterministic_node_counts(self, full_config):
        r1 = ks_colorable(full_config)
        r2 = ks_colorable(full_config)
        assert (r1.nodes, r1.propagations) == (r2.nodes, r2.propagations)

    def test_stress_configuration_unsat(self):
        # the 741-ray, 490-context closure at norm bound 18, as committed for
        # the benchmark
        path = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "rays741.txt"
        cfg = ingest_rays(path.read_text())
        assert (cfg.n_rays, len(cfg.contexts)) == (741, 490)
        res = ks_colorable(cfg)
        assert (res.satisfiable, res.nodes, res.propagations) == (False, 11, 865)

    def test_contextless_configuration_rejected(self, full_config):
        lonely = subconfiguration(full_config, [0, 1])
        with pytest.raises(ValueError):
            ks_colorable(lonely)


    def test_search_deeper_than_recursion_limit(self):
        # 1,200 disjoint contexts branched in id order: every decision sets
        # the next context's first ray to 1, so the search is 1,200 deep
        m = 1200
        adj = [0] * (3 * m)
        for r in range(3 * m):
            base = r - r % 3
            adj[r] = (0b111 << base) & ~(1 << r)
        problem = _Problem(
            n=3 * m,
            adj=tuple(adj),
            contexts=tuple((3 * c, 3 * c + 1, 3 * c + 2) for c in range(m)),
            must_cover=tuple(range(m)),
            budget=0,
            order=tuple(range(3 * m)),
        )
        mask, stats = _solve(problem)
        assert mask == sum(1 << (3 * c) for c in range(m))
        assert (stats.nodes, stats.propagations) == (m + 1, 0)


class TestMaximize:
    def test_single_context_best_one(self):
        cfg = single_context()
        opt = maximize_covered_contexts(cfg)
        assert opt.best == 1
        assert opt.certificate == []
        assert global_sum_bounds(cfg, opt) == (0, 1)

    def test_two_disjoint_contexts_best_two(self):
        cfg = two_disjoint_contexts()
        opt = maximize_covered_contexts(cfg)
        assert opt.best == 2
        assert global_sum_bounds(cfg, opt) == (0, 2)

    def test_full_configuration_best_128(self, full_config):
        opt = maximize_covered_contexts(full_config)
        assert opt.best == 128
        assert covered_contexts(full_config, opt.witness) == 128
        assert check_valuation(full_config, opt.witness,
                               ModelKind.REAL_EMBEDDED) == []
        # refutations: the all-covered case plus one per excluded context
        assert len(opt.certificate) == 131
        assert opt.certificate[0].excluded == ()
        assert {e.excluded for e in opt.certificate[1:]} == {
            (c,) for c in range(130)
        }
        assert all(e.result == "UNSAT" for e in opt.certificate)
        assert global_sum_bounds(full_config, opt) == (0, 128)

    def test_certificate_replays(self, full_config):
        opt = maximize_covered_contexts(full_config)
        assert replay_certificate(full_config, opt)

    def test_certificate_text_structure(self, full_config):
        opt = maximize_covered_contexts(full_config)
        text = certificate_to_text(full_config, opt)
        lines = text.splitlines()
        assert "model real-embedded" in lines
        assert "rays 165" in lines
        assert "contexts 130" in lines
        assert "best 128" in lines
        witness_lines = [ln for ln in lines if ln.startswith("witness ")]
        assert len(witness_lines) == 1
        ids = list(map(int, witness_lines[0].split()[1:]))
        assert ids == opt.witness.ones()
        assert sum(1 for ln in lines if ln.startswith("refuted ")) == 131

    def test_agreement_with_colorability(self, full_config):
        # UNSAT <=> best < context count
        opt = maximize_covered_contexts(full_config)
        assert not ks_colorable(full_config).satisfiable
        assert opt.best < len(full_config.contexts)
        cfg = single_context()
        assert ks_colorable(cfg).satisfiable
        assert maximize_covered_contexts(cfg).best == len(cfg.contexts)


class TestGlobalSumBounds:
    def test_inconsistent_best_at_context_count(self, full_config):
        fake = OptimizationResult(
            best=130, witness=Valuation.zeros(165), certificate=[],
            colorability=ks_colorable(full_config), stats={}
        )
        with pytest.raises(InconsistentCertificates):
            global_sum_bounds(full_config, fake)

    def test_inconsistent_low_best_on_colorable(self):
        cfg = single_context()
        fake = OptimizationResult(
            best=0, witness=Valuation.zeros(3), certificate=[],
            colorability=ks_colorable(cfg), stats={}
        )
        with pytest.raises(InconsistentCertificates):
            global_sum_bounds(cfg, fake)


class TestOracleEquivalence:
    def test_fifty_random_subconfigurations(self, full_config):
        rng = random.Random(20250808)
        checked = 0
        for _ in range(50):
            size = rng.choice([8] * 10 + [12] * 15 + [16] * 15 + [20] * 10)
            ctx = full_config.contexts[rng.randrange(130)]
            ids = set(ctx.ray_ids)
            while len(ids) < size:
                ids.add(rng.randrange(165))
            sub = subconfiguration(full_config, sorted(ids))
            if not sub.contexts:
                continue
            oracle_colorable, oracle_best = brute_force(sub)
            res = ks_colorable(sub)
            assert res.satisfiable == oracle_colorable
            opt = maximize_covered_contexts(sub)
            assert opt.best == oracle_best
            assert covered_contexts(sub, opt.witness) == opt.best
            assert check_valuation(sub, opt.witness,
                                   ModelKind.REAL_EMBEDDED) == []
            assert replay_certificate(sub, opt)
            checked += 1
        assert checked == 50


def milp_best(cfg):
    """Maximum covered contexts by scipy's HiGHS MILP: binary x_r per ray and
    y_c per context, x_i + x_j <= 1 on every edge, y_c <= sum of x_r over the
    rays of c, maximize the sum of y_c."""
    optimize = pytest.importorskip("scipy.optimize")
    n, m, n_edges = cfg.n_rays, len(cfg.contexts), len(cfg.edges)
    a = np.zeros((n_edges + m, n + m))
    for row, (i, j) in enumerate(sorted(cfg.edges)):
        a[row, [i, j]] = 1
    for c, ctx in enumerate(cfg.contexts):
        a[n_edges + c, n + c] = 1
        a[n_edges + c, list(ctx.ray_ids)] = -1
    upper = np.concatenate([np.ones(n_edges), np.zeros(m)])
    res = optimize.milp(
        np.concatenate([np.zeros(n), -np.ones(m)]),
        integrality=np.ones(n + m),
        bounds=optimize.Bounds(0, 1),
        constraints=optimize.LinearConstraint(a, -np.inf, upper),
    )
    assert res.status == 0, res.message
    return round(-res.fun)


class TestHighsOracle:
    """A floating-point MILP cross-checks the exact certified optimum."""

    def test_published_configuration(self, full_config):
        assert milp_best(full_config) == maximize_covered_contexts(full_config).best == 128

    def test_seeded_subconfigurations(self, full_config):
        # unions of sampled contexts; the larger ones are not colourable
        rng = random.Random(20251018)
        uncolourable = 0
        for n_sampled in (20, 35, 50, 55, 60, 65):
            sampled = rng.sample(full_config.contexts, n_sampled)
            sub = subconfiguration(full_config, sorted({r for c in sampled for r in c.ray_ids}))
            opt = maximize_covered_contexts(sub)
            assert milp_best(sub) == opt.best
            uncolourable += opt.best < len(sub.contexts)
        assert uncolourable >= 2
