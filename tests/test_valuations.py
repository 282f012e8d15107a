"""Valuation checking, colorability, certified maximization, oracle equivalence."""

import random
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from conftest import forking, losing_fork
from hypothesis import given, settings
from hypothesis import strategies as st

from ksembed import valuations
from ksembed.configuration import (
    Configuration,
    configuration_from_vectors,
    ingest_rays,
    mub_bases,
    subconfiguration,
)
from ksembed.valuations import (
    CoverSearch,
    EngineError,
    InconsistentCertificates,
    LayoutTooLarge,
    ModelKind,
    OptimizationResult,
    SizeMismatch,
    Valuation,
    _build_tables,
    _make_problem,
    _refutations,
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
        i, j, k = ctx
        s = ((masks >> i) & 1) + ((masks >> j) & 1) + ((masks >> k) & 1)
        covered += (s == 1).astype(np.int32)
        all_exactly_one &= s == 1
    colorable = bool((admissible & all_exactly_one).any())
    best = int(covered[admissible].max())
    return colorable, best


def cover_mask(contexts):
    """The _solve cover mask of distinct context indices."""
    return sum(1 << c for c in contexts)


def scan_solve(adj, contexts, order, must_cover, budget):
    """Reference engine: the same DFS, by ray id, with propagation by a full
    scan of the must-cover contexts at every step, forcing as it goes in
    must_cover order."""
    must = [contexts[ci] for ci in must_cover]
    full = (1 << len(adj)) - 1
    nodes = propagations = 0

    def assign_one(ones, zeros, r):
        bit = 1 << r
        if zeros & bit or adj[r] & ones:
            return None
        return ones | bit, zeros | adj[r]

    def propagate(ones, zeros):
        nonlocal propagations
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
                    propagations += 1
                    forced = True
            if not forced:
                return ones, zeros

    stack = [(0, 0)]
    while stack:
        st = propagate(*stack.pop())
        if st is None:
            continue
        ones, zeros = st
        nodes += 1
        free = full & ~ones & ~zeros
        if not free:
            return ones, nodes, propagations
        r = next(r for r in order if (free >> r) & 1)
        stack.append((ones, zeros | (1 << r)))
        st1 = assign_one(ones, zeros, r)
        if st1 is not None:
            stack.append(st1)
    return None, nodes, propagations


@st.composite
def small_problems(draw):
    """Up to 30 rays; contexts are cliques, plus random extra edges; a random
    branching order, a random must-cover subset, budget 0-3.  Returns the
    instance by ray id, must_cover sorted and unique, and the budget."""
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
    order = tuple(draw(st.permutations(range(n))))
    instance = (tuple(adj), tuple(contexts), order)
    return instance, sorted(must), draw(st.integers(0, 3))


def scan_instance(cfg, order):
    """cfg as scan_solve reads it: neighbor masks and contexts by ray id, in
    the branching ``order``."""
    adj = [0] * cfg.n_rays
    for i, j in cfg.edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj, cfg.contexts, order


class TestEngineAgainstScan:
    @given(small_problems())
    @settings(max_examples=300, deadline=None)
    def test_same_search_as_full_scan(self, drawn):
        instance, must, budget = drawn
        assert _solve(_build_tables(*instance), cover_mask(must), budget) == \
            scan_solve(*instance, must, budget)

    def test_force_that_opens_an_earlier_context(self):
        # context indices: Q = (3, 4, 5) at 0, P = (0, 1, 2) at 1,
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
        order = (12,) + tuple(range(12))
        # the 12 = 0 branch then covers every context with 0, 3, 6, 9 and
        # no forcing: 6 nodes, and the 3 forces of the failed 12 = 1 branch
        assert scan_solve(adj, contexts, order, range(4), 0) == (585, 6, 3)
        assert _solve(_build_tables(adj, contexts, order), 0b1111, 0) == (585, 6, 3)

    # at published scale the context masks are 130 bits wide; the draws
    # above stop at 16 contexts
    def test_published_escalation(self, full_config):
        problem = _make_problem(full_config)
        instance = scan_instance(full_config, problem.order)
        got = [_solve(problem, (1 << 130) - 1, budget) for budget in range(3)]
        assert got == [scan_solve(*instance, range(130), budget) for budget in range(3)]
        # budgets 0 and 1 are UNSAT, budget 2 holds the witness
        assert [counts[1:] for counts in got] == [(11, 369), (316, 9671), (109, 2094)]
        assert [mask is None for mask, _, _ in got] == [True, True, False]

    def test_published_seeded_must_cover_subsets(self, full_config):
        problem = _make_problem(full_config)
        instance = scan_instance(full_config, problem.order)
        # most subsets of fewer than 100 contexts are covered in a few nodes
        rng = random.Random(22)
        results = set()
        for _ in range(30):
            must = sorted(rng.sample(range(130), rng.randint(100, 130)))
            budget = rng.randint(0, 3)
            got = _solve(problem, cover_mask(must), budget)
            assert got == scan_solve(*instance, must, budget), (must, budget)
            results.add(got[0] is None)
        assert results == {True, False}


def forked_lines(problem, cover):
    """The watched colour search of ``cover``, then each single exclusion
    resumed from its fork, or with the colour search's record where it
    never leaves; and the forks."""
    forks = {}
    colour = _solve(problem, cover, 0, forks=forks)
    singles = [c for c in range(cover.bit_length()) if cover >> c & 1]
    return [colour] + [_solve(problem, cover ^ 1 << c, 0, forks[c]) if c in forks else colour
                       for c in singles], forks


def root_lines(problem, cover):
    """The same lines as forked_lines, each searched from its root."""
    singles = [c for c in range(cover.bit_length()) if cover >> c & 1]
    return [_solve(problem, cover, 0)] + [_solve(problem, cover ^ 1 << c, 0) for c in singles]


def forked_layout(cfg):
    """Maximization's 1 + C lines of an uncolourable ``cfg``: the watched
    colour search, then the single exclusions through _refutations; the
    forks as the search left them, and those never resumed."""
    problem = _make_problem(cfg)
    n = len(cfg.contexts)
    forks = {}
    mask, nodes, propagations = _solve(problem, (1 << n) - 1, 0, forks=forks)
    assert mask is None
    starts = dict(forks)
    lines = list(_refutations(problem, n, n - 2, CoverSearch((), nodes, propagations), forks))
    assert lines == list(_refutations(problem, n, n - 2))
    return lines, starts, forks


class TestForkedLines:
    """A line resumed from its fork is the search of its cover from the root."""

    @given(small_problems())
    @settings(max_examples=300, deadline=None)
    def test_same_as_root_searches(self, drawn):
        instance, must, _ = drawn
        problem = _build_tables(*instance)
        cover = cover_mask(must)
        lines, forks = forked_lines(problem, cover)
        assert lines == root_lines(problem, cover)
        assert forks.keys() <= set(must)

    def test_only_all_zero_context_excluded(self):
        # contexts X = (0, 1, 2) at 0, Y = (3, 4, 5) at 1, Z = (6, 7, 8) at 2;
        # ray 3, branched first, is orthogonal to 0, 1, 2, 6 and 7.  At 3 = 1
        # X is the only all-zero context: the colour search prunes, and the
        # line that excludes X forks there (event (b)) and sweeps from floor
        # 0, which forces 8 (Z).  No sweep of the colour search reaches X
        contexts = ((0, 1, 2), (3, 4, 5), (6, 7, 8))
        edges = [(a, b) for ctx in contexts for a in ctx for b in ctx if a < b]
        edges += [(3, r) for r in (0, 1, 2, 6, 7)]
        adj = [0] * 9
        for i, j in edges:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        problem = _build_tables(adj, contexts, (3, 0, 1, 2, 4, 5, 6, 7, 8))
        lines, forks = forked_lines(problem, 0b111)
        assert lines == root_lines(problem, 0b111)
        # the start, under the 3 = 1 state the 3 = 0 branch, enters its sweep
        # at floor 0 after one node (the root) and no force
        assert list(forks) == [0]
        assert len(forks[0][0]) == 2 and forks[0][1:] == (0, 1, 0)
        assert lines[1] == (1 << 3 | 1 << 8, 2, 1)

    def test_published_lines(self, full_config):
        lines, starts, unresumed = forked_layout(full_config)
        assert len(lines) == 131 and unresumed == {}
        # 126 lines leave the colour search at a sweep (event (a)); 0, 4, 5
        # and 6 never leave it
        assert sorted(set(range(130)) - starts.keys()) == [0, 4, 5, 6]
        assert all(floor > 0 for _, floor, _, _ in starts.values())
        assert sum(propagations for *_, propagations in starts.values()) == 16_657
        assert sum(e.propagations for e in lines[1:]) == 50_415

    def test_stress_lines(self, stress_config):
        lines, starts, unresumed = forked_layout(stress_config)
        assert len(lines) == 491 and unresumed == {}
        assert not any(e.satisfiable for e in lines)


class TestEngineProblem:
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
        # one problem each for ks_colorable, maximization and replay;
        # colourability, the watched colour search, the 126 single exclusions
        # that leave it (the other 4 have its record), budget 2, and 131 in replay
        assert calls == {"problems": 3, "tables": 3, "solves": 260}


class TestCheckValuation:
    def test_entries_must_be_bits(self):
        with pytest.raises(ValueError, match="0 or 1"):
            Valuation((2,))

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

    @pytest.mark.parametrize("change", ["append", "drop"])
    def test_covered_contexts_size_mismatch(self, full_config, change):
        # the maximization witness, one bit longer or shorter
        bits = maximize_covered_contexts(full_config).witness.bits
        bits = bits + (0,) if change == "append" else bits[:-1]
        with pytest.raises(SizeMismatch, match=f"{len(bits)} values for 165 rays"):
            covered_contexts(full_config, Valuation(bits))

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


@pytest.fixture(scope="module")
def stress_config():
    """The 741-ray, 490-context closure at norm bound 18, as committed for
    the benchmark."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "rays741.txt"
    return ingest_rays(path.read_text())


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

    def test_stress_configuration_unsat(self, stress_config):
        assert (stress_config.n_rays, len(stress_config.contexts)) == (741, 490)
        res = ks_colorable(stress_config)
        assert (res.satisfiable, res.nodes, res.propagations) == (False, 11, 865)

    @pytest.mark.parametrize("excluded, nodes, propagations", [
        (0, 11, 865), (1, 24, 1961), (2, 20, 1556), (245, 11, 864), (489, 11, 860)])
    def test_stress_single_exclusions(self, stress_config, excluded, nodes, propagations):
        # budget-0 cover checks of all contexts but one: 490-bit context masks
        cover = ((1 << 490) - 1) ^ (1 << excluded)
        assert _solve(_make_problem(stress_config), cover, 0) == (None, nodes, propagations)

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
        contexts = [(3 * c, 3 * c + 1, 3 * c + 2) for c in range(m)]
        problem = _build_tables(adj, contexts, range(3 * m))
        assert _solve(problem, (1 << m) - 1, 0) == (sum(1 << (3 * c) for c in range(m)), m + 1, 0)


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
        # a tampered count on one entry fails the replay
        entry = opt.certificate[7]
        for tampered in (replace(entry, nodes=entry.nodes + 1),
                         replace(entry, propagations=entry.propagations + 1)):
            forged = replace(opt, certificate=[
                tampered if e is entry else e for e in opt.certificate])
            assert not replay_certificate(full_config, forged)

    @pytest.mark.parametrize("forge", [
        lambda cfg, opt: replace(opt, certificate=opt.certificate[:-1]),
        lambda cfg, opt: replace(opt, certificate=opt.certificate[1:]),
        lambda cfg, opt: replace(opt, certificate=[
            opt.certificate[0], opt.certificate[2], opt.certificate[1],
            *opt.certificate[3:]]),
        lambda cfg, opt: replace(opt, certificate=[
            *opt.certificate[:5], opt.certificate[4], *opt.certificate[5:]]),
        lambda cfg, opt: replace(opt, best=opt.best + 1, certificate=opt.certificate[:1]),
        lambda cfg, opt: replace(opt, best=opt.best - 1),
        lambda cfg, opt: replace(opt, witness=Valuation.zeros(cfg.n_rays)),
        lambda cfg, opt: replace(opt, witness=Valuation(tuple(
            1 if r in min(cfg.edges) else b for r, b in enumerate(opt.witness.bits)))),
        # the layout for best = 0 begins with the published 131 lines
        lambda cfg, opt: replace(opt, best=0, witness=Valuation.zeros(cfg.n_rays)),
    ], ids=["last-dropped", "empty-exclusion-dropped", "swapped", "duplicated",
            "best-raised", "best-lowered", "all-zero-witness", "edge-witness",
            "all-zero-best-zero"])
    def test_forged_result_fails_replay(self, full_config, forge):
        opt = maximize_covered_contexts(full_config)
        assert not replay_certificate(full_config, forge(full_config, opt))

    def test_colourable_configuration_replays(self):
        cfg = single_context()
        opt = maximize_covered_contexts(cfg)
        assert (opt.best, opt.certificate) == (len(cfg.contexts), [])
        assert replay_certificate(cfg, opt)

    def test_satisfiable_line_fails_replay(self):
        # best = 1 of 2 with a witness covering one context: the layout is the
        # empty exclusion alone, satisfiable, so the line is no refutation
        cfg = two_disjoint_contexts()
        opt = maximize_covered_contexts(cfg)
        witness = Valuation(tuple(b if r in cfg.contexts[0] else 0
                                  for r, b in enumerate(opt.witness.bits)))
        mask, nodes, propagations = _solve(_make_problem(cfg), 0b11, 0)
        assert mask is not None
        line = CoverSearch((), nodes, propagations, Valuation.from_mask(mask, cfg.n_rays))
        assert not replay_certificate(cfg, replace(opt, best=1, witness=witness,
                                                   certificate=[line]))

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

    def test_pair_layout_keeps_its_witnesses(self, full_config):
        # the layout that would refute best = 128: every set of at most two
        # contexts left uncovered.  Its coverable lines are the pairs of
        # contexts through two different rays of the computational basis
        # (context 0), each with a witness that covers all the others
        lines = list(_refutations(_make_problem(full_config), 130, 127))
        assert len(lines) == 1 + 130 + 130 * 129 // 2 == 8516
        assert sum(e.nodes for e in lines) == 101_000
        opt = maximize_covered_contexts(full_config)
        assert lines[:131] == opt.certificate
        assert ks_colorable(full_config) == opt.certificate[0]
        basis = full_config.contexts[0]
        through = {c: r for c in range(1, 130) for r in basis if r in full_config.contexts[c]}
        assert through == {1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 1, 7: 2, 8: 2, 9: 2}
        satisfiable = [e for e in lines if e.satisfiable]
        assert [e.excluded for e in satisfiable] == [
            (a, b) for a, b in combinations(range(1, 10), 2) if through[a] != through[b]]
        assert len(satisfiable) == 27
        for e in satisfiable:
            assert e.result == "SAT"
            assert check_valuation(full_config, e.witness, ModelKind.REAL_EMBEDDED) == []
            assert covered_contexts(full_config, e.witness) == 128

    def test_maximization_calls_ks_colorable_once(self, full_config, monkeypatch):
        # perfbench/tracing.py times colourability by wrapping this module
        # attribute: maximization must go through it, once
        calls = []
        real = valuations.ks_colorable

        def wrapper(cfg):
            calls.append(cfg)
            return real(cfg)

        monkeypatch.setattr(valuations, "ks_colorable", wrapper)
        opt = maximize_covered_contexts(full_config)
        assert calls == [full_config]
        assert opt.colorability == real(full_config)

    def test_satisfiable_refutation_subproblem_raises(self, monkeypatch):
        # a stub engine: uncolourable, then an all-zero witness for the first
        # single exclusion, which covers 0 of the 2 contexts, not 2 - 1
        def fake(problem, cover, budget):
            return (None if cover == (1 << len(problem.rays)) - 1 else 0), 0, 0

        monkeypatch.setattr(valuations, "_solve", forking(fake))
        with pytest.raises(InconsistentCertificates,
                           match=r"excluding \(0,\) has a witness covering 0 contexts, not 1"):
            maximize_covered_contexts(two_disjoint_contexts())

    def test_escalation_stops_before_budget_3(self, full_config, monkeypatch):
        # a stub engine that finds nothing: the 1 + 130 lines prove budget 1
        # unsatisfiable, so budget 1 is never searched; budget 2 is, 3 is not
        calls = []

        def unsatisfiable(problem, cover, budget):
            calls.append((budget, cover.bit_count()))
            return None, 0, 0

        monkeypatch.setattr(valuations, "_solve", forking(unsatisfiable))
        with pytest.raises(LayoutTooLarge, match="3 or more of the 130 contexts"):
            maximize_covered_contexts(full_config)
        # ks_colorable's search, the watched colour search, the 130 lines
        # resumed from its forks, and budget 2
        assert calls == [(0, 130)] * 2 + [(0, 129)] * 130 + [(2, 130)]

    def test_replay_catches_a_lost_fork(self, full_config, monkeypatch):
        # context 7's fork is lost, so its line takes the colour search's
        # record (11 nodes) for its own (28): replay, which searches every
        # line from its root and resumes none, refuses the certificate
        real = valuations._solve
        monkeypatch.setattr(valuations, "_solve", losing_fork(real, 7))
        opt = maximize_covered_contexts(full_config)
        line = opt.certificate[8]
        assert (line.excluded, line.nodes, line.propagations) == ((7,), 11, 369)
        assert opt.stats["forked_lines"] == 125
        searches = []

        def counting(problem, cover, budget, start=None, forks=None):
            searches.append((budget, start, forks))
            return real(problem, cover, budget, start, forks)

        monkeypatch.setattr(valuations, "_solve", counting)
        assert not replay_certificate(full_config, opt)
        assert searches == [(0, None, None)] * 131

    def test_watched_colour_search_must_repeat_ks_colorable(self, full_config,
                                                              monkeypatch):
        # the forks are only starts of the lines if the watched search is the
        # colour search itself: one more node is an engine fault
        real = valuations._solve

        def drifting(problem, cover, budget, start=None, forks=None):
            mask, nodes, propagations = real(problem, cover, budget, start, forks)
            return mask, nodes + (forks is not None), propagations

        monkeypatch.setattr(valuations, "_solve", drifting)
        with pytest.raises(EngineError, match="watched colour search differs"):
            maximize_covered_contexts(full_config)

    def test_one_ray_deleted_best_is_one_short(self, full_config):
        # without ray 3 the configuration is still uncolourable, but a single
        # exclusion is coverable: the walk stops there, and the colour line
        # alone is the certificate
        sub = subconfiguration(full_config, [i for i in range(165) if i != 3])
        assert (sub.n_rays, len(sub.edges), len(sub.contexts)) == (164, 376, 123)
        opt = maximize_covered_contexts(sub)
        assert (opt.best, opt.stats["witness_budget"]) == (122, 1)
        assert opt.certificate == [ks_colorable(sub)]
        assert check_valuation(sub, opt.witness, ModelKind.REAL_EMBEDDED) == []
        assert covered_contexts(sub, opt.witness) == 122
        assert replay_certificate(sub, opt)

    def test_two_published_copies_exceed_the_layout_cap(self, full_config):
        # each copy leaves 2 of its contexts uncovered, so the union leaves 4:
        # the budget-3 and budget-4 searches and the refutation family of
        # every set of at most 3 of the 260 contexts are never started
        n = full_config.n_rays
        cfg = Configuration(
            rays=full_config.rays + [replace(r, id=r.id + n) for r in full_config.rays],
            edges=full_config.edges | {(i + n, j + n) for i, j in full_config.edges},
            imaginary_pairs=full_config.imaginary_pairs
            | {(i + n, j + n) for i, j in full_config.imaginary_pairs},
            contexts=full_config.contexts
            + [tuple(r + n for r in ctx) for ctx in full_config.contexts],
            adjacency=full_config.adjacency
            + [{j + n for j in a} for a in full_config.adjacency],
        )
        assert (cfg.n_rays, len(cfg.edges), len(cfg.contexts)) == (330, 780, 260)
        with pytest.raises(LayoutTooLarge, match="3 or more of the 260 contexts"):
            maximize_covered_contexts(cfg)


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
            ids = set(ctx)
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
        a[n_edges + c, list(ctx)] = -1
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

    def test_one_ray_deleted(self, full_config):
        sub = subconfiguration(full_config, [i for i in range(165) if i != 3])
        assert milp_best(sub) == maximize_covered_contexts(sub).best == 122

    def test_seeded_subconfigurations(self, full_config):
        # unions of sampled contexts; the larger ones are not colourable
        rng = random.Random(20251018)
        uncolourable = 0
        for n_sampled in (20, 35, 50, 55, 60, 65):
            sampled = rng.sample(full_config.contexts, n_sampled)
            sub = subconfiguration(full_config, sorted({r for c in sampled for r in c}))
            opt = maximize_covered_contexts(sub)
            assert milp_best(sub) == opt.best
            uncolourable += opt.best < len(sub.contexts)
        assert uncolourable >= 2
