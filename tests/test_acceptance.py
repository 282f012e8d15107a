"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value here is either trivial, verified against the source
counts (165 rays, 130 contexts, uncolourable, bound 128), or frozen from an
independent computation (brute-force pair scan, exhaustive enumeration,
200-digit numeric evaluation).
"""

import random
import time

import mpmath as mp
import numpy as np

from ksembed.configuration import (
    closure_generate,
    is_unbiased,
    mub_bases,
    mub_seed,
    subconfiguration,
)
from ksembed.exact import (
    EisensteinInt,
    VecC3,
    dot6,
    hermitian_inner,
    phi0,
    re_part,
)
from ksembed.realify import (
    PhaseAssignment,
    is_spurious_exact,
    rational_phase_search,
    scan_spurious_zero_phases,
    verify_faithful,
)
from ksembed.valuations import (
    ModelKind,
    Valuation,
    check_valuation,
    covered_contexts,
    ks_colorable,
    maximize_covered_contexts,
    replay_certificate,
)


def report(criterion: str, elapsed: float, limit: float, detail: str):
    status = "PASS" if elapsed < limit else "OVER-TIME"
    print(f"{status} {criterion} ({elapsed:.2f}s < {limit:.0f}s): {detail}")
    assert elapsed < limit, f"{criterion} exceeded its runtime bound"


class TestAcceptance:
    def test_criterion_1_mub_structure(self, bases):
        t0 = time.perf_counter()
        orthogonal_pairs = 0
        for basis in bases:
            for i in range(3):
                for j in range(i + 1, 3):
                    assert hermitian_inner(basis[i], basis[j]).is_zero()
                    orthogonal_pairs += 1
        unbiased_pairs = 0
        for a in range(4):
            for b in range(a + 1, 4):
                for u in bases[a]:
                    for v in bases[b]:
                        c = hermitian_inner(u, v)
                        assert c.norm() * 3 == u.sq_norm() * v.sq_norm()
                        assert is_unbiased(u, v)
                        unbiased_pairs += 1
        assert orthogonal_pairs == 12
        assert unbiased_pairs == 54
        report("criterion 1 (MUB structure)", time.perf_counter() - t0, 1.0,
               "4 bases, 12 orthogonal within-basis pairs, 54 unbiased cross pairs")

    def test_criterion_2_configuration_counts(self):
        t0 = time.perf_counter()
        cfg = closure_generate(mub_seed())
        assert cfg.n_rays == 165, "closure fixed point must have 165 rays"
        assert len(cfg.contexts) == 130, "closure fixed point must have 130 contexts"
        # maximal cliques of size exactly 3: no triangle extends, every edge
        # lies in at least one context (build_contexts re-verified here)
        covered = set()
        for ctx in cfg.contexts:
            i, j, k = ctx
            assert not (cfg.adjacency[i] & cfg.adjacency[j] & cfg.adjacency[k])
            covered.update({(i, j), (i, k), (j, k)})
        assert set(cfg.edges) <= covered
        report("criterion 2 (configuration counts)", time.perf_counter() - t0,
               10.0, "closure reaches 165 rays / 130 contexts / 390 edges")

    def test_criterion_3_ks_uncolourability(self, full_config):
        t0 = time.perf_counter()
        res = ks_colorable(full_config)
        assert not res.satisfiable
        # the exhaustion certificate replays: a rerun is again UNSAT with
        # identical node and propagation counts
        again = ks_colorable(full_config)
        assert not again.satisfiable
        assert (again.nodes, again.propagations) == (res.nodes, res.propagations)
        report("criterion 3 (KS-uncolourability)", time.perf_counter() - t0,
               60.0, f"UNSAT, {res.nodes} nodes, replayed identically")

    def test_criterion_4_faithful_realification(self, full_config):
        t0 = time.perf_counter()
        for strategy in ("distinct", "backtracking", "greedy-random"):
            pa = rational_phase_search(full_config, 1009, strategy, rng_seed=0)
            fr = verify_faithful(full_config, pa)
            assert fr.pairs_checked == 13530
            assert fr.spurious == []
            assert fr.missing == []
        report("criterion 4 (faithful realification)", time.perf_counter() - t0,
               10.0, "K=1009, all 3 strategies, 13530 pairs, exact = fixed point")

    def test_criterion_5_canonical_map_unfaithful(self, full_config):
        t0 = time.perf_counter()
        zero = PhaseAssignment(K=1009, n=(0,) * 165)
        fr = verify_faithful(full_config, zero)
        assert len(fr.spurious) >= 1
        assert fr.spurious == scan_spurious_zero_phases(full_config)
        # every spurious inner product is an integer multiple of 1 + 2w
        # (purely imaginary); the i*sqrt(3) witness itself occurs
        cs = [full_config.pair_inner(i, j) for i, j in fr.spurious]
        assert all(c.is_purely_imaginary() for c in cs)
        assert any(c.norm() == 3 for c in cs)
        report("criterion 5 (zero phases unfaithful)", time.perf_counter() - t0,
               5.0, f"{len(fr.spurious)} spurious pairs, witness c = ±(1+2ω) present")

    def test_criterion_6_valuation_bounds(self, full_config):
        t0 = time.perf_counter()
        zeros = Valuation.zeros(165)
        assert check_valuation(full_config, zeros, ModelKind.REAL_EMBEDDED) == []
        complex_violations = check_valuation(full_config, zeros,
                                             ModelKind.COMPLEX_MAXIMAL)
        assert len(complex_violations) == 130
        opt = maximize_covered_contexts(full_config)
        assert opt.best == 128
        assert covered_contexts(full_config, opt.witness) == 128
        assert check_valuation(full_config, opt.witness,
                               ModelKind.REAL_EMBEDDED) == []
        assert len(opt.certificate) == 131
        assert all(e.result == "UNSAT" for e in opt.certificate)
        assert replay_certificate(full_config, opt)
        report("criterion 6 (valuation bounds)", time.perf_counter() - t0,
               600.0, "all-zero admissible, 130 completeness violations, "
                      "best = 128 with 131 replayable refutations")

    def test_criterion_7_oracle_equivalence(self, full_config):
        t0 = time.perf_counter()
        rng = random.Random(20250808)
        checked = 0
        while checked < 50:
            size = rng.choice([8, 10, 12, 14, 16, 18, 20])
            ctx = full_config.contexts[rng.randrange(130)]
            ids = set(ctx)
            while len(ids) < size:
                ids.add(rng.randrange(165))
            sub = subconfiguration(full_config, sorted(ids))
            if not sub.contexts:
                continue
            n = sub.n_rays
            masks = np.arange(1 << n, dtype=np.uint32)
            admissible = np.ones(masks.shape, dtype=bool)
            for i, j in sub.edges:
                admissible &= ~(((masks >> i) & 1) & ((masks >> j) & 1)).astype(bool)
            covered = np.zeros(masks.shape, dtype=np.int32)
            all_one = np.ones(masks.shape, dtype=bool)
            for c3 in sub.contexts:
                i, j, k = c3
                s = ((masks >> i) & 1) + ((masks >> j) & 1) + ((masks >> k) & 1)
                covered += (s == 1).astype(np.int32)
                all_one &= s == 1
            oracle_colorable = bool((admissible & all_one).any())
            oracle_best = int(covered[admissible].max())
            assert ks_colorable(sub).satisfiable == oracle_colorable
            assert maximize_covered_contexts(sub).best == oracle_best
            checked += 1
        report("criterion 7 (oracle equivalence)", time.perf_counter() - t0,
               60.0, "50 sub-configurations, solver = exhaustive 2^N oracle")

    def test_criterion_8_exact_arithmetic_suite(self):
        t0 = time.perf_counter()
        rng = random.Random(8)

        def rand_vec():
            while True:
                v = VecC3.make(
                    EisensteinInt(rng.randint(-4, 4), rng.randint(-4, 4)),
                    EisensteinInt(rng.randint(-4, 4), rng.randint(-4, 4)),
                    EisensteinInt(rng.randint(-4, 4), rng.randint(-4, 4)),
                )
                if not v.is_zero():
                    return v

        for _ in range(10_000):
            u, v = rand_vec(), rand_vec()
            assert dot6(phi0(u), phi0(v)) == re_part(hermitian_inner(u, v))
        for _ in range(1_000):
            u = rand_vec()
            image = phi0(u)
            assert dot6(image, image).p == u.sq_norm()
            assert dot6(image, image).q == 0

        disagreements = 0
        with mp.workdps(200):
            sqrt3 = mp.sqrt(3)
            cutoff = mp.mpf(10) ** -50
            for k in (7, 13):
                for a in range(-3, 4):
                    for b in range(-3, 4):
                        c = EisensteinInt(a, b)
                        if c.is_zero():
                            continue
                        for dn in range(2 * k):
                            theta = mp.pi * dn / k
                            val = (mp.mpf(2 * a - b) / 2 * mp.cos(theta)
                                   - sqrt3 * b / 2 * mp.sin(theta))
                            numeric_zero = abs(val / mp.sqrt(c.norm())) < cutoff
                            if is_spurious_exact(c, dn, k) != numeric_zero:
                                disagreements += 1
        assert disagreements == 0
        report("criterion 8 (exact arithmetic suite)", time.perf_counter() - t0,
               60.0, "10^4 real-dot identities, norm preservation, "
                     "exact vs 200-digit zero test: 0 disagreements")
