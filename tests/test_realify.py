"""Phase search and faithfulness verification, exact and high-precision."""

import hashlib
import random
import time

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksembed.configuration import (
    Configuration,
    Ray,
    configuration_from_vectors,
    mub_bases,
)
from ksembed.exact import OMEGA, EisensteinInt, VecC3
from ksembed.realify import (
    InvalidK,
    PhaseAssignment,
    PrecisionDisagreement,
    SearchExhausted,
    ZeroInnerProduct,
    _backtracking_search,
    is_spurious_exact,
    load_phases,
    minimal_k_probe,
    phase_apply_export,
    rational_phase_search,
    save_phases,
    save_vectors,
    scan_spurious_zero_phases,
    verify_faithful,
)


def unvalidated_config(*vecs) -> Configuration:
    """Assemble rays without hypergraph validation, for phase-machinery toys."""
    rays = [Ray(i, v, v.sq_norm()) for i, v in enumerate(vecs)]
    n = len(rays)
    from ksembed.exact import hermitian_inner

    adjacency = [set() for _ in range(n)]
    edges = set()
    imaginary = set()
    for i in range(n):
        for j in range(i + 1, n):
            c = hermitian_inner(rays[i].vec, rays[j].vec)
            if c.is_zero():
                edges.add((i, j))
                adjacency[i].add(j)
                adjacency[j].add(i)
            elif c.is_purely_imaginary():
                imaginary.add((i, j))
    return Configuration(rays=rays, edges=frozenset(edges),
                         imaginary_pairs=frozenset(imaginary), contexts=[],
                         adjacency=adjacency)


IMAGINARY_PAIR = unvalidated_config(
    VecC3.make(1, 1, 0), VecC3.make(1, 2 * OMEGA, 0)
)  # inner product 1 + 2w = i*sqrt(3)


class TestSpuriousExact:
    def test_imaginary_at_zero_shift(self):
        assert is_spurious_exact(EisensteinInt(1, 2), 0, 1009) is True

    def test_imaginary_at_nonzero_shift(self):
        assert is_spurious_exact(EisensteinInt(1, 2), 1, 1009) is False

    def test_real_inner_product_never_spurious(self):
        for dn in (0, 1, 7, 1009, 2018):
            assert is_spurious_exact(EisensteinInt(1, 0), dn, 1009) is False

    def test_invalid_k(self):
        with pytest.raises(InvalidK):
            is_spurious_exact(EisensteinInt(1, 2), 0, 9)
        with pytest.raises(InvalidK):
            is_spurious_exact(EisensteinInt(1, 2), 0, -7)
        # 5 is coprime to 6, hence valid
        assert is_spurious_exact(EisensteinInt(1, 2), 5, 5) is True

    def test_zero_c_rejected(self):
        with pytest.raises(ZeroInnerProduct):
            is_spurious_exact(EisensteinInt(0, 0), 0, 7)

    @pytest.mark.parametrize("k", [7, 13])
    def test_exhaustive_grid_against_200_digit_evaluation(self, k):
        # all c = a + b*w with coefficients in [-3, 3], all dn in [0, 2K)
        with mp.workdps(200):
            sqrt3 = mp.sqrt(3)
            cutoff = mp.mpf(10) ** -50
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
                        assert is_spurious_exact(c, dn, k) == numeric_zero

    @given(st.integers(min_value=-3000, max_value=3000))
    @settings(max_examples=50)
    def test_global_shift_invariance(self, t):
        cfg = IMAGINARY_PAIR
        pa = PhaseAssignment(K=7, n=(0, 3))
        shifted = pa.shifted(t)
        r1 = verify_faithful(cfg, pa)
        r2 = verify_faithful(cfg, shifted)
        assert r1.spurious == r2.spurious
        assert r1.missing == r2.missing


class TestRationalSearch:
    def test_distinct_on_full_configuration(self, full_config):
        pa = rational_phase_search(full_config, 1009, "distinct")
        assert pa.n == tuple(range(165))
        fr = verify_faithful(full_config, pa)
        assert fr.faithful and fr.pairs_checked == 13530

    def test_toy_imaginary_pair_needs_distinct_residues(self):
        for strategy in ("distinct", "backtracking", "greedy-random"):
            pa = rational_phase_search(IMAGINARY_PAIR, 7, strategy)
            assert (pa.n[0] - pa.n[1]) % 7 != 0

    def test_no_imaginary_pairs_allows_all_zero(self):
        cfg = configuration_from_vectors(mub_bases()[0])
        pa = rational_phase_search(cfg, 7, "backtracking")
        assert pa.n == (0, 0, 0)

    def test_distinct_small_k_exhausts(self, full_config):
        with pytest.raises(SearchExhausted):
            rational_phase_search(full_config, 7, "distinct")

    def test_k_equal_one_exhausts_any_strategy(self):
        # theta multiples of pi keep every purely imaginary pair spurious
        for strategy in ("distinct", "backtracking", "greedy-random"):
            with pytest.raises(SearchExhausted):
                rational_phase_search(IMAGINARY_PAIR, 1, strategy)

    def test_invalid_k_rejected(self):
        with pytest.raises(InvalidK):
            rational_phase_search(IMAGINARY_PAIR, 9, "distinct")

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            rational_phase_search(IMAGINARY_PAIR, 7, "annealing")

    def test_greedy_random_deterministic_by_seed(self, full_config):
        pa1 = rational_phase_search(full_config, 1009, "greedy-random", rng_seed=5)
        pa2 = rational_phase_search(full_config, 1009, "greedy-random", rng_seed=5)
        pa3 = rational_phase_search(full_config, 1009, "greedy-random", rng_seed=6)
        assert pa1.n == pa2.n
        assert pa1.n != pa3.n

    def test_greedy_random_draws_as_list_choice(self, full_config):
        # reference: rng.choice over the listed free residues of each ray
        iadj = [[] for _ in range(full_config.n_rays)]
        for i, j in sorted(full_config.imaginary_pairs):
            iadj[j].append(i)
        for k in (5, 7, 11, 13, 1009, 10007):
            for seed in range(3):
                rng = random.Random(seed)
                ref = []
                for m in range(full_config.n_rays):
                    banned = {ref[j] % k for j in iadj[m]}
                    allowed = [r for r in range(k) if r not in banned]
                    if not allowed:
                        ref = None
                        break
                    ref.append(rng.choice(allowed))
                if ref is None:
                    with pytest.raises(SearchExhausted):
                        rational_phase_search(full_config, k, "greedy-random", rng_seed=seed)
                else:
                    pa = rational_phase_search(full_config, k, "greedy-random", rng_seed=seed)
                    assert pa.n == tuple(ref)

    def test_greedy_random_huge_k(self, full_config):
        # K = 2^31 - 1 is prime; no step may take time or memory of order K
        t0 = time.perf_counter()
        pa = rational_phase_search(full_config, 2**31 - 1, "greedy-random", rng_seed=1)
        assert time.perf_counter() - t0 < 1.0
        assert all(0 <= n < 2**31 - 1 for n in pa.n)

    def test_backtracking_retries_earlier_rays(self):
        # ray 3 conflicts with rays 1 and 2 at K = 2, so ray 1 must move to 1
        assert _backtracking_search([[], [], [0], [1, 2]], 4, 2) == [0, 1, 1, 0]

    def test_backtracking_assignment_pinned(self, full_config):
        pa = rational_phase_search(full_config, 5, "backtracking")
        assert hashlib.sha256(repr(pa.n).encode()).hexdigest() == (
            "ae09d25b2492fb515a85bfae8963758308750ecaea60a4ab29f28fdd90ea2550"
        )

    def test_backtracking_deeper_than_recursion_limit(self):
        assert _backtracking_search([[] for _ in range(1500)], 1500, 5) == [0] * 1500

    def test_minimal_k_probe_backtracking(self, full_config):
        found = minimal_k_probe(full_config, "backtracking", candidates=(5, 7, 11, 13))
        assert found is not None
        k, pa = found
        assert k == 5
        assert verify_faithful(full_config, pa).faithful


class TestVerifyFaithful:
    def test_zero_phases_are_unfaithful(self, full_config):
        pa = PhaseAssignment(K=1009, n=(0,) * 165)
        fr = verify_faithful(full_config, pa)
        assert len(fr.spurious) >= 1
        assert fr.missing == []
        assert fr.pairs_checked == 13530
        # regression: exhaustive scan finds exactly the purely imaginary pairs
        assert fr.spurious == scan_spurious_zero_phases(full_config)
        assert len(fr.spurious) == 636

    def test_orthogonal_pairs_never_missing(self, full_config):
        for strategy in ("distinct", "greedy-random"):
            pa = rational_phase_search(full_config, 1009, strategy, rng_seed=3)
            assert verify_faithful(full_config, pa).missing == []

    def test_size_mismatch(self, full_config):
        with pytest.raises(ValueError):
            verify_faithful(full_config, PhaseAssignment(K=7, n=(0, 1)))

    def test_agreement_is_enforced(self):
        # sanity: the spurious verdict on the witness pair agrees at 60 digits
        pa = PhaseAssignment(K=1009, n=(0, 0))
        fr = verify_faithful(IMAGINARY_PAIR, pa)
        assert fr.spurious == [(0, 1)]

    def test_low_precision_cross_check_disagrees(self, full_config):
        # only the last ray is shifted, by dn = K: its purely imaginary
        # pairs are exactly spurious, but sin(pi) at 15 digits is ~1e-16,
        # above the 1e-50 cutoff, so the cross-check disagrees on the last
        # pairs of the scan; at 60 digits it agrees on every pair
        pa = PhaseAssignment(K=1009, n=(0,) * 164 + (1009,))
        with pytest.raises(PrecisionDisagreement, match=r", 164\): exact says zero"):
            verify_faithful(full_config, pa, float_dps=15)
        fr = verify_faithful(full_config, pa)
        assert fr.spurious == scan_spurious_zero_phases(full_config)

    def test_all_orthogonal_configuration_accepts_zero_phases(self):
        # no non-orthogonal pairs, so the canonical map is already faithful
        cfg = configuration_from_vectors(mub_bases()[0])
        fr = verify_faithful(cfg, PhaseAssignment(K=7, n=(0, 0, 0)))
        assert fr.faithful
        assert fr.pairs_checked == 3


class TestExport:
    def test_unit_ray_identity_phase(self):
        cfg = unvalidated_config(VecC3.make(1, 0, 0))
        rows = phase_apply_export(cfg, PhaseAssignment(K=1009, n=(0,)), 20)
        assert rows == [("1", "0", "0", "0", "0", "0")]

    def test_unit_ray_phase_pi(self):
        cfg = unvalidated_config(VecC3.make(1, 0, 0))
        rows = phase_apply_export(cfg, PhaseAssignment(K=1009, n=(1009,)), 20)
        assert rows == [("-1", "0", "0", "0", "0", "0")]

    def test_omega_ray_twenty_digits(self):
        cfg = unvalidated_config(VecC3.make(OMEGA, 0, 0))
        rows = phase_apply_export(cfg, PhaseAssignment(K=1009, n=(0,)), 20)
        assert rows == [("-0.5", "0", "0", "0.86602540378443864676", "0", "0")]
        # the 20-digit value matches an independent higher-precision rounding
        with mp.workdps(50):
            assert rows[0][3] == mp.nstr(mp.sqrt(3) / 2, 20)

    def test_minimum_precision_enforced(self):
        cfg = unvalidated_config(VecC3.make(1, 0, 0))
        with pytest.raises(ValueError):
            phase_apply_export(cfg, PhaseAssignment(K=1009, n=(0,)), 10)

    def test_exported_norms_match_sq_norm(self, full_config):
        pa = rational_phase_search(full_config, 1009, "distinct")
        rows = phase_apply_export(full_config, pa, 20)
        for ray, row in zip(full_config.rays, rows):
            total = sum(float(x) ** 2 for x in row)
            assert total == pytest.approx(ray.sq_norm, rel=1e-12)

    def test_deterministic(self, full_config):
        pa = rational_phase_search(full_config, 1009, "distinct")
        assert phase_apply_export(full_config, pa, 16) == phase_apply_export(
            full_config, pa, 16
        )


class TestFiles:
    def test_phase_round_trip(self, full_config):
        pa = rational_phase_search(full_config, 1009, "greedy-random", rng_seed=11)
        text = save_phases(pa)
        assert text.splitlines()[0] == "K 1009"
        again = load_phases(text)
        assert again == pa

    def test_vector_header(self):
        text = save_vectors([("1", "0", "0", "0", "0", "0")], 20)
        assert text.splitlines()[0] == "# precision=20"

    def test_bad_phase_header(self):
        with pytest.raises(ValueError):
            load_phases("1009\n0 0\n")

    def test_repeated_ray_id_rejected(self):
        with pytest.raises(ValueError, match="ray id 0"):
            load_phases("K 5\n0 1\n0 2\n1 3\n")
