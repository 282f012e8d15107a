"""Phase search and faithfulness verification, exact and high-precision."""

import decimal
import functools
import hashlib
import math
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from mpmath import libmp
from mpmath.libmp import libelefun
from conftest import lifted
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ksembed import realify
from ksembed.configuration import (
    Configuration,
    Ray,
    configuration_from_vectors,
    ingest_rays,
    mub_bases,
)
from ksembed.exact import OMEGA, EisensteinInt, VecC3, flat_inner_row
from ksembed.realify import (
    ExportUndecided,
    InvalidK,
    PhaseAssignment,
    PrecisionDisagreement,
    SearchExhausted,
    ZeroInnerProduct,
    _backtracking_search,
    default_k,
    is_spurious_exact,
    load_phases,
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


def pairwise_verify_faithful(cfg, pa, float_dps=60):
    """Reference for verify_faithful: the fixed-point cross-check evaluated
    on every non-orthogonal pair, with the same units, the same cutoff and
    the same error text."""
    if len(pa.n) != cfg.n_rays:
        raise ValueError(
            f"phase assignment covers {len(pa.n)} rays, configuration has {cfg.n_rays}"
        )
    k, ns = pa.K, pa.n
    k2 = 2 * k
    flats = [ray.vec.flat() for ray in cfg.rays]
    bits = math.ceil(float_dps * math.log2(10)) + 8
    threshold = math.ceil(Fraction(1, 10**50) * (1 << (2 * bits)))
    spurious, pairs_checked = [], 0
    with mp.workdps(float_dps):
        sqrt3 = mp.sqrt(3)

        def fixed(x):
            return int(mp.nint(mp.ldexp(x, bits)))

        trig, units = {}, {}
        for i in range(cfg.n_rays - 1):
            row = flat_inner_row(flats[i], flats[i + 1:])
            pairs_checked += len(row)
            for j, c in enumerate(row, i + 1):
                a, b = c
                if not (a or b):
                    continue
                dn = (ns[j] - ns[i]) % k2
                exact_zero = 2 * a == b and dn % k == 0
                cs = trig.get(dn)
                if cs is None:
                    theta = mp.pi * dn / k
                    cs = trig[dn] = (fixed(mp.cos(theta)), fixed(mp.sin(theta)))
                u = units.get(c)
                if u is None:
                    twice_abs = 2 * mp.sqrt(a * a - a * b + b * b)
                    u = units[c] = (fixed((2 * a - b) / twice_abs),
                                    fixed(sqrt3 * b / twice_abs))
                dot = u[0] * cs[0] - u[1] * cs[1]
                if (-threshold < dot < threshold) != exact_zero:
                    raise PrecisionDisagreement(
                        f"pair ({i}, {j}): exact says "
                        f"{'zero' if exact_zero else 'nonzero'}, "
                        f"{float_dps}-digit value is "
                        f"{mp.nstr(mp.ldexp(dot, -2 * bits), 8)}"
                    )
                if exact_zero:
                    spurious.append((i, j))
    return realify.FaithfulnessReport(spurious=spurious, pairs_checked=pairs_checked)


def reference_phase_apply_export(cfg, pa, precision=20):
    """Reference for phase_apply_export: each field evaluated with mpmath
    number objects under mp.workdps(precision + 60), with cos and sin exact
    at theta = 0 and pi, rounded half to even to ``precision`` digits by
    decimal, and laid out by mp.nstr."""
    to_even = decimal.Context(prec=precision, rounding=decimal.ROUND_HALF_EVEN)
    rows = []
    with mp.workdps(precision + 60):
        sqrt3 = mp.sqrt(3)
        for ray, nk in zip(cfg.rays, pa.n):
            if nk % pa.K:
                theta = mp.pi * nk / pa.K
                cth, sth = mp.cos(theta), mp.sin(theta)
            else:
                cth, sth = mp.mpf(1 if nk == 0 else -1), mp.mpf(0)
            res, ims = [], []
            for z in ray.vec:
                re = mp.mpf(2 * z.a - z.b) / 2
                im = sqrt3 * z.b / 2
                res.append(re * cth - im * sth)
                ims.append(re * sth + im * cth)
            row = []
            for x in res + ims:
                d = to_even.plus(decimal.Decimal(mp.nstr(x, precision + 60)))
                # the p-digit decimal, written as mp.nstr writes it
                s = mp.nstr(mp.mpf(str(d)), precision, strip_zeros=True)
                row.append(s[:-2] if s.endswith(".0") else s)
            rows.append(tuple(row))
    return rows


def exact_zero_fields(vec, n, k):
    """Which of the six exported fields of e^{i*n*pi/K} v are exactly zero,
    by the integer rule: a nonzero coordinate z = a + b*w gives a zero field
    only at n = 0 (mod K), in the real slot when z is purely imaginary
    (2a = b) and in the imaginary slot when z is real (b = 0)."""
    half_turn = n % k == 0
    real = [z.is_zero() or (half_turn and 2 * z.a == z.b) for z in vec]
    imag = [z.is_zero() or (half_turn and z.b == 0) for z in vec]
    return tuple(real + imag)


@functools.lru_cache(maxsize=None)
def committed_config(n_rays: int) -> Configuration:
    """The committed 165- or 741-ray configuration, ingested once."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "data" / f"rays{n_rays}.txt"
    return ingest_rays(path.read_text())


def sub_config(n_rays: int, ids) -> Configuration:
    """The given rays of a committed configuration, indexed from 0 in the
    order given; only the rays, which is all verify_faithful reads."""
    rays = [committed_config(n_rays).rays[i] for i in ids]
    return Configuration(rays=rays, edges=frozenset(), imaginary_pairs=frozenset(),
                         contexts=[], adjacency=[set() for _ in rays])


def rays_config(vecs) -> Configuration:
    """The given vectors as rays 0, 1, ..., in the order given; only the
    rays, which is all phase_apply_export reads."""
    rays = [Ray(i, v, v.sq_norm()) for i, v in enumerate(vecs)]
    return Configuration(rays=rays, edges=frozenset(), imaginary_pairs=frozenset(),
                         contexts=[], adjacency=[set() for _ in rays])


def verify_outcome(verify, cfg, pa, float_dps):
    """(spurious, missing, pairs_checked), or (exception type, message)."""
    try:
        fr = verify(cfg, pa, float_dps=float_dps)
    except Exception as exc:
        return type(exc), str(exc)
    return fr.spurious, fr.missing, fr.pairs_checked


ORACLE_KS = (5, 7, 11, 13, 1009, 10007, 100003, 2**31 - 1)


@st.composite
def oracle_cases(draw):
    """A random subconfiguration of a committed configuration, a K, phases
    uniform mod 2K or multiples of K (so dn = 0 and dn = K both occur), and
    a precision."""
    n_rays = draw(st.sampled_from((165, 741)))
    ids = sorted(draw(st.sets(st.integers(0, n_rays - 1), min_size=2, max_size=40)))
    k = draw(st.sampled_from(ORACLE_KS))
    if draw(st.booleans()):
        phase = st.integers(0, 2 * k - 1)
    else:
        phase = st.integers(0, 1).map(lambda m: m * k)
    ns = tuple(draw(st.lists(phase, min_size=len(ids), max_size=len(ids))))
    dps = draw(st.sampled_from((15, 30, 60)))
    return n_rays, tuple(ids), k, ns, dps


EXPORT_PRECISIONS = (15, 16, 20, 33, 40, 60)


@st.composite
def export_cases(draw):
    """1-40 rays of a committed configuration (repeats allowed), lifted by
    conftest.LIFT^k for wide coefficients or not at all, a K, phases uniform
    mod 2K or multiples of K, and a precision."""
    n_rays = draw(st.sampled_from((165, 741)))
    ids = draw(st.lists(st.integers(0, n_rays - 1), min_size=1, max_size=40))
    k_m = draw(st.one_of(st.just(0), st.integers(1, 43)))
    k = draw(st.sampled_from(ORACLE_KS))
    if draw(st.booleans()):
        phase = st.integers(0, 2 * k - 1)
    else:
        phase = st.integers(0, 1).map(lambda m: m * k)
    ns = tuple(draw(st.lists(phase, min_size=len(ids), max_size=len(ids))))
    precision = draw(st.sampled_from(EXPORT_PRECISIONS))
    return n_rays, tuple(ids), k_m, k, ns, precision


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
        shifted = PhaseAssignment(K=7, n=(t, 3 + t))
        r1 = verify_faithful(cfg, pa)
        r2 = verify_faithful(cfg, shifted)
        assert r1.spurious == r2.spurious
        assert r1.missing == r2.missing


def past_1009_rays() -> Configuration:
    """1,010 rays whose one purely imaginary pair is (0, 1009): (1, 1, 0),
    1,008 copies of (1, 0, 0), then (1, 2w, 0).  The inner products are
    1 + 2w = i*sqrt(3) for the pair (0, 1009) and 1 for every other pair,
    so verify_faithful decodes only two distinct c."""
    vecs = ([VecC3.make(1, 1, 0)] + [VecC3.make(1, 0, 0)] * 1008
            + [VecC3.make(1, 2 * OMEGA, 0)])
    cfg = rays_config(vecs)
    return Configuration(rays=cfg.rays, edges=frozenset(),
                         imaginary_pairs=frozenset({(0, 1009)}), contexts=[],
                         adjacency=cfg.adjacency)


class TestDefaultK:
    @pytest.mark.parametrize("n_rays, k", [
        (0, 1009), (165, 1009), (741, 1009), (1009, 1009), (1010, 1013),
        (1013, 1013), (1014, 1015), (1221, 1223),
    ])
    def test_default_k(self, n_rays, k):
        assert default_k(n_rays) == k

    def test_distinct_past_1009_rays(self):
        cfg = past_1009_rays()
        # at K = 1009, "distinct" puts rays 0 and 1009 on the same residue
        with pytest.raises(SearchExhausted, match=r"pair \(0, 1009\) spurious at K=1009"):
            rational_phase_search(cfg, 1009)
        pa = rational_phase_search(cfg)
        assert pa.K == 1013 and pa.n == tuple(range(1010))
        fr = verify_faithful(cfg, pa)
        assert fr.faithful and fr.pairs_checked == 1010 * 1009 // 2

    def test_published_scales_keep_1009(self, full_config):
        assert rational_phase_search(full_config).K == 1009
        assert rational_phase_search(committed_config(741)).K == 1009


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


ALL_165, ALL_741 = tuple(range(165)), tuple(range(741))


def last_ray_shifted(n_rays: int, k: int) -> tuple[int, ...]:
    return (0,) * (n_rays - 1) + (k,)


def alternating(n_rays: int, k: int) -> tuple[int, ...]:
    return tuple(k * (i % 2) for i in range(n_rays))


def random_phases(n_rays: int, k: int) -> tuple[int, ...]:
    rng = random.Random(k)
    return tuple(rng.randrange(2 * k) for _ in range(n_rays))


class TestCrossCheckOracle:
    """verify_faithful, which evaluates the fixed-point dot once per distinct
    inner product at candidate phase differences, against the per-pair
    reference: the same report, or the same exception and message."""

    @given(oracle_cases())
    @settings(max_examples=60, deadline=None)
    @example((165, ALL_165, 1009, ALL_165, 60))
    @example((165, ALL_165, 1009, (0,) * 165, 15))
    @example((165, ALL_165, 1009, last_ray_shifted(165, 1009), 15))
    @example((165, ALL_165, 1009, last_ray_shifted(165, 1009), 30))
    @example((165, ALL_165, 11, alternating(165, 11), 15))
    @example((165, ALL_165, 1009, alternating(165, 1009), 30))
    @example((165, ALL_165, 13, alternating(165, 13), 60))
    @example((741, ALL_741, 1009, last_ray_shifted(741, 1009), 15))
    @example((741, ALL_741, 1009, ALL_741, 60))
    # past 2^53, where a double-precision locator misplaces the zeros
    @example((165, ALL_165, 10**18 + 1, ALL_165, 60))
    @example((165, ALL_165, 10**18 + 1, last_ray_shifted(165, 10**18 + 1), 60))
    @example((165, ALL_165, 2**61 - 1, random_phases(165, 2**61 - 1), 30))
    def test_matches_pairwise_reference(self, case):
        n_rays, ids, k, ns, dps = case
        cfg = sub_config(n_rays, ids)
        pa = PhaseAssignment(K=k, n=ns)
        assert verify_outcome(verify_faithful, cfg, pa, dps) == verify_outcome(
            pairwise_verify_faithful, cfg, pa, dps)

    @given(oracle_cases(), st.integers(1, 43))
    @settings(max_examples=30, deadline=None)
    def test_matches_pairwise_reference_on_wide_lanes(self, case, k_m):
        # the rays M^k v (conftest.LIFT) have coefficients near 5^k and inner
        # products 25^k c, so the key lanes A*2^h + B run past 64 bits
        n_rays, ids, k, ns, dps = case
        vecs = lifted([committed_config(n_rays).rays[i].vec for i in ids], k_m)
        cfg = configuration_from_vectors(vecs, strict=False)
        pa = PhaseAssignment(K=k, n=ns)
        assert verify_outcome(verify_faithful, cfg, pa, dps) == verify_outcome(
            pairwise_verify_faithful, cfg, pa, dps)

    @pytest.mark.parametrize("m", [1, 14, 10**30])
    def test_key_holds_the_largest_b(self, m):
        # |B| <= 6 m^2 bounds the key's low part; these pairs attain it:
        # <u, v> = 3m^2 + 6m^2 w and <v, u> = -3m^2 - 6m^2 w, both purely
        # imaginary, so they are spurious at dn = 0
        u = VecC3.make((m, -m), (m, -m), (m, -m))
        v = VecC3.make((m, m), (m, m), (m, m))
        cfg = unvalidated_config(u, v, u)
        for ns in ((0, 0, 0), (0, 1, 2)):
            pa = PhaseAssignment(K=1009, n=ns)
            assert verify_outcome(verify_faithful, cfg, pa, 60) == verify_outcome(
                pairwise_verify_faithful, cfg, pa, 60)
        assert verify_faithful(cfg, PhaseAssignment(K=1009, n=(0, 0, 0))).spurious == [
            (0, 1), (1, 2)]

    @pytest.mark.parametrize("z", [EisensteinInt(2, 1), EisensteinInt(1, 2)],
                             ids=["generic", "purely-imaginary"])
    @pytest.mark.parametrize("dps", [15, 60])
    def test_multiples_of_one_direction(self, z, dps):
        # ray 0 meets rays 1, 2, 3 in c, 2c and -c: c and 2c are checked
        # once, as one direction, and -c as the opposite direction
        vecs = [VecC3.make(1, 0, 0), VecC3.make(z, 1, 0), VecC3.make(2 * z, 1, 0),
                VecC3.make(-z, 1, 0)]
        c = (z.a, z.b)
        assert flat_inner_row(vecs[0].flat(), [v.flat() for v in vecs[1:]]) == [
            c, (2 * c[0], 2 * c[1]), (-c[0], -c[1])]
        cfg = unvalidated_config(*vecs)
        for ns in ((0, 0, 0, 0), (0, 1009, 0, 1009), (0, 1009, 1009, 0), (0, 1, 2, 3)):
            pa = PhaseAssignment(K=1009, n=ns)
            assert verify_outcome(verify_faithful, cfg, pa, dps) == verify_outcome(
                pairwise_verify_faithful, cfg, pa, dps)

    def test_mislocated_zero_is_a_typed_error(self, monkeypatch):
        # a locator one off puts the candidates of the purely imaginary
        # c = i*sqrt3 at dn = 1 and K + 1, so its exact zeros at dn = 0 and K
        # would go unchecked
        locate = realify._zero_near
        monkeypatch.setattr(realify, "_zero_near", lambda *args: locate(*args) + 1)
        with pytest.raises(PrecisionDisagreement,
                           match=r"c = 1 \+ 2w is purely imaginary.*at \[1, 1010\]"):
            verify_faithful(IMAGINARY_PAIR, PhaseAssignment(K=1009, n=(0, 0)))

    def test_guard_refuses_before_scanning(self, monkeypatch):
        # sin(127pi/256K) ~ 1.6e-15 at K = 10^15 + 1 is within the rounding bound
        # at 15 digits, where the per-pair check would read rounding noise
        def no_scan(*args):
            raise AssertionError("the guard must act before the scan")

        monkeypatch.setattr(realify, "flat_lane_rows", no_scan)
        pa = PhaseAssignment(K=10**15 + 1, n=(0, 1))
        with pytest.raises(PrecisionDisagreement, match=r"K=1000000000000001: at 15 digits"):
            verify_faithful(IMAGINARY_PAIR, pa, float_dps=15)
        # the patched kernel is the one the scan computes its rows with
        with pytest.raises(AssertionError, match="the guard must act"):
            verify_faithful(IMAGINARY_PAIR, pa)

    def test_guard_passes_at_60_digits(self):
        pa = PhaseAssignment(K=10**15 + 1, n=(0, 1))
        fr = verify_faithful(IMAGINARY_PAIR, pa)
        assert fr.faithful and fr.pairs_checked == 1

    @pytest.mark.parametrize("dps", [15, 60])
    def test_guard_passes_at_largest_oracle_k(self, full_config, dps):
        pa = rational_phase_search(full_config, 2**31 - 1, "distinct")
        fr = verify_faithful(full_config, pa, float_dps=dps)
        assert fr.faithful and fr.pairs_checked == 13530


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

    def test_phase_count_must_match_ray_count(self):
        cfg = unvalidated_config(VecC3.make(1, 0, 0))
        with pytest.raises(ValueError, match="does not cover the configuration"):
            phase_apply_export(cfg, PhaseAssignment(K=1009, n=(0, 0)), 20)

    def test_minimum_precision_enforced(self):
        cfg = unvalidated_config(VecC3.make(1, 0, 0))
        with pytest.raises(ValueError):
            phase_apply_export(cfg, PhaseAssignment(K=1009, n=(0,)), 10)

    def test_maximum_precision_enforced(self):
        cfg = unvalidated_config(VecC3.make(OMEGA, 0, 0))
        pa = PhaseAssignment(K=1009, n=(0,))
        with pytest.raises(ValueError, match="and <= 1000 significant digits"):
            phase_apply_export(cfg, pa, realify.MAX_PRECISION + 1)
        row = phase_apply_export(cfg, pa, realify.MAX_PRECISION)[0]
        assert row[:3] == ("-0.5", "0", "0") and len(row[3]) == 2 + realify.MAX_PRECISION

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

    @given(export_cases())
    @settings(max_examples=60, deadline=None)
    @example((165, ALL_165, 0, 1009, ALL_165, 20))
    @example((165, ALL_165, 43, 1009, alternating(165, 1009), 15))
    @example((741, ALL_741[:40], 0, 2**31 - 1, ALL_741[:40], 60))
    def test_matches_reference_export(self, case):
        # every field, string for string, against the mp-object evaluation
        n_rays, ids, k_m, k, ns, precision = case
        vecs = lifted([committed_config(n_rays).rays[i].vec for i in ids], k_m)
        cfg = rays_config(vecs)
        pa = PhaseAssignment(K=k, n=ns)
        rows = phase_apply_export(cfg, pa, precision)
        assert rows == reference_phase_apply_export(cfg, pa, precision)
        # a field is "0" iff the integer rule makes it zero
        for vec, n, row in zip(vecs, pa.n, rows):
            assert tuple(x == "0" for x in row) == exact_zero_fields(vec, n, k)

    @pytest.mark.parametrize("z, k_m, n, expected", [
        # 5^21 w: real slot -(m + 1/2), m = 238418579101562 even: down
        (OMEGA, 21, 0, ("-238418579101562", "0", "0", "412953092472286", "0", "0")),
        (OMEGA, 21, 1009, ("238418579101562", "0", "0", "-412953092472286", "0", "0")),
        # 5^20 (1 - w): real slot m + 1/2, m = 143051147460937 odd: up
        (EisensteinInt(1, -1), 20, 0,
         ("143051147460938", "0", "0", "-82590618494457.1", "0", "0")),
        # 5^22 = 2384185791015625: a tie at the 16th digit
        (1, 22, 1009, ("-2.38418579101562e+15", "0", "0", "0", "0", "0")),
    ], ids=["omega-down", "omega-half-turn", "one-minus-omega-up", "integer-tie"])
    def test_exact_tie_rounds_half_even(self, z, k_m, n, expected):
        # at n = 0 (mod K) the real slot is exact, so a tie is a tie
        cfg = rays_config(lifted([VecC3.make(z, 0, 0)], k_m))
        pa = PhaseAssignment(K=1009, n=(n,))
        assert phase_apply_export(cfg, pa, 15) == [expected]
        assert reference_phase_apply_export(cfg, pa, 15) == [expected]

    def test_undecided_field_is_retried(self, monkeypatch):
        # a first evaluation at 5 digits decides no field that needs
        # rounding to 15; the retries, each at twice the bits, end at the
        # full-precision output
        cfg = sub_config(165, range(20))
        pa = PhaseAssignment(K=1009, n=tuple(range(20)))
        expected = phase_apply_export(cfg, pa, 15)
        precs = []
        real_row = realify._export_row

        def recording_row(vec, nk, k, precision, prec):
            precs.append(prec)
            return real_row(vec, nk, k, precision, prec)

        monkeypatch.setattr(realify, "_export_row", recording_row)
        monkeypatch.setattr(realify, "EXPORT_GUARD_DIGITS", -10)
        assert phase_apply_export(cfg, pa, 15) == expected
        assert expected == reference_phase_apply_export(cfg, pa, 15)
        first = libmp.dps_to_prec(5)
        assert precs.count(first) == 20 and len(precs) > 20
        assert set(precs) <= {first << i for i in range(5)}

    def test_field_near_zero_is_retried_not_written_zero(self, monkeypatch):
        # the real slot of (1, 0, 0) at n = (K - 1)/2 is sin(pi/2K) ~ 7.3e-10:
        # at 5 digits its interval [F - E, F + E] holds 0, which decides
        # nothing, since the field is not exactly zero
        k = 2**31 - 1
        cfg = rays_config([VecC3.make(1, 0, 0)])
        pa = PhaseAssignment(K=k, n=((k - 1) // 2,))
        expected = phase_apply_export(cfg, pa, 15)
        real_slots = []
        real_fields = realify._decimal_fields

        def recording_fields(values, shift, precision):
            real_slots.append(values[0])
            return real_fields(values, shift, precision)

        monkeypatch.setattr(realify, "_decimal_fields", recording_fields)
        monkeypatch.setattr(realify, "EXPORT_GUARD_DIGITS", -10)
        rows = phase_apply_export(cfg, pa, 15)
        assert rows == expected == reference_phase_apply_export(cfg, pa, 15)
        assert rows[0][0] == "7.31459039974192e-10"
        f, err = real_slots[0]
        assert -err <= f <= err and err > 0
        assert len(real_slots) > 1

    def test_cap_raises_promptly(self, monkeypatch):
        # with the cap at precision + 0 digits, a ray undecided at 5 and at
        # 10 digits is refused after those two evaluations
        cfg = sub_config(165, [7])
        pa = PhaseAssignment(K=1009, n=(1,))
        calls = []
        real_row = realify._export_row

        def counting_row(*args):
            calls.append(args[-1])
            return real_row(*args)

        monkeypatch.setattr(realify, "_export_row", counting_row)
        monkeypatch.setattr(realify, "EXPORT_GUARD_DIGITS", -10)
        monkeypatch.setattr(realify, "EXPORT_MAX_GUARD_DIGITS", 0)
        with pytest.raises(ExportUndecided, match="ray 0: a field of 15 digits is undecided"):
            phase_apply_export(cfg, pa, 15)
        first = libmp.dps_to_prec(5)
        assert calls == [first, 2 * first]

    @pytest.mark.parametrize("values, expected", [
        # the interval holds 10^0, yet both of its ends round to 1
        ([((1 << 200) - 1, 2)], ("1",)),
        # the interval straddles the point halfway between two 15-digit
        # neighbours, so its ends round apart
        ([(1234567890123455 << 200, 1)], None),
        # exact ties (err = 0) go to the even neighbour
        ([(1234567890123455 << 200, 0), (1234567890123445 << 200, 0),
          (-(1234567890123455 << 200), 0)],
         ("1.23456789012346e+15", "1.23456789012344e+15", "-1.23456789012346e+15")),
    ], ids=["power-of-ten-inside", "straddles-halfway", "exact-ties"])
    def test_decimal_fields_decides_when_both_ends_agree(self, values, expected):
        assert realify._decimal_fields(values, 200, 15) == expected

    def test_wide_real_ray_at_half_turn(self):
        # (5^30, 0, 0) = conftest.LIFT^30 (1, 0, 0): sin(pi) evaluated at 30
        # digits, times 5^30, would read 1.6e-10 in the imaginary slot
        vecs = lifted([VecC3.make(1, 0, 0)], 30)
        rows = phase_apply_export(rays_config(vecs), PhaseAssignment(K=1009, n=(1009,)), 15)
        assert rows == [("-9.31322574615479e+20", "0", "0", "0", "0", "0")]


class TestWorkCounts:
    """The realification arithmetic runs on raw mpmath.libmp values: one
    mpf_cos_sin call per angle (none for export's exact 0 and pi), and no
    use of mpmath's global precision."""

    def test_one_cos_sin_call_per_angle(self, monkeypatch):
        calls = {"cos_sin": 0, "cos": 0, "sin": 0, "to_str": 0, "row": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # mp.cos and mp.sin reach mpf_cos_sin through libelefun's own name
        cos_sin = counting("cos_sin", libmp.mpf_cos_sin)
        monkeypatch.setattr(libmp, "mpf_cos_sin", cos_sin)
        monkeypatch.setattr(libelefun, "mpf_cos_sin", cos_sin)
        monkeypatch.setattr(mp, "cos", counting("cos", mp.cos))
        monkeypatch.setattr(mp, "sin", counting("sin", mp.sin))
        monkeypatch.setattr(libmp, "to_str", counting("to_str", libmp.to_str))
        monkeypatch.setattr(realify, "_export_row", counting("row", realify._export_row))
        cfg = committed_config(741)
        pa = rational_phase_search(cfg, 1009, "distinct")
        phase_apply_export(cfg, pa, 20)
        # one per ray but ray 0, whose n = 0 needs none; one evaluation per
        # ray (no retry), and no field through libmp.to_str
        assert calls == {"cos_sin": 740, "cos": 0, "sin": 0, "to_str": 0, "row": 741}
        calls.update(cos_sin=0, row=0)
        assert verify_faithful(cfg, pa).pairs_checked == 274170
        # 586 distinct candidate dn, and sin(127pi/256K) for the guard
        assert calls == {"cos_sin": 586 + 1, "cos": 0, "sin": 0, "to_str": 0, "row": 0}

    def test_one_locator_call_per_direction(self, monkeypatch):
        # the real rays (1, x, 0) meet in the real c = 1 + xy, all of one
        # direction, and (1, 2w, 0) meets each in its own direction
        vecs = [VecC3.make(1, x, 0) for x in range(1, 201)] + [VecC3.make(1, 2 * OMEGA, 0)]
        flats = [v.flat() for v in vecs]
        values = {c for i, f in enumerate(flats) for c in flat_inner_row(f, flats[i + 1:])}
        values.discard((0, 0))
        directions = {(a // math.gcd(a, b), b // math.gcd(a, b)) for a, b in values}
        calls = []
        atan2 = libmp.mpf_atan2
        monkeypatch.setattr(libmp, "mpf_atan2", lambda *args: calls.append(args) or atan2(*args))
        fr = verify_faithful(rays_config(vecs), PhaseAssignment(K=1009, n=tuple(range(201))))
        assert fr.faithful and fr.pairs_checked == 201 * 200 // 2
        assert len(calls) == len(directions) == 201 < len(values)

    def test_independent_of_global_precision(self, full_config):
        cases = [(PhaseAssignment(K=1009, n=(0,) * 165), 60),
                 (PhaseAssignment(K=1009, n=last_ray_shifted(165, 1009)), 15),
                 (PhaseAssignment(K=10**15 + 1, n=ALL_165), 15),
                 (rational_phase_search(full_config, 1009, "distinct"), 60)]
        expected = [(verify_outcome(verify_faithful, full_config, pa, dps),
                     phase_apply_export(full_config, pa, 20)) for pa, dps in cases]
        with mp.workdps(5):
            prec = mp.mp.prec
            for (pa, dps), (outcome, rows) in zip(cases, expected):
                assert verify_outcome(verify_faithful, full_config, pa, dps) == outcome
                assert mp.mp.prec == prec
                assert phase_apply_export(full_config, pa, 20) == rows
                assert mp.mp.prec == prec


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

    @pytest.mark.parametrize("header", ["K 7 extra", "K", "K7", "K -7", "k 7", "K \uff15"])
    def test_header_is_exactly_k_and_an_integer(self, header):
        with pytest.raises(ValueError, match=repr(header)):
            load_phases(f"{header}\n0 3\n")

    def test_repeated_ray_id_rejected(self):
        with pytest.raises(ValueError, match="ray id 0"):
            load_phases("K 5\n0 1\n0 2\n1 3\n")

    @pytest.mark.parametrize("line", ["0 1_0", "0 x", "0 +3", "+0 3", "-1 3", "0 3.0",
                                      "0 --3", "0 3 4", "0 \uff13", "\uff10 3",
                                      "0 -\uff13", "0 \u0663"])
    def test_entry_is_a_ray_id_and_an_integer(self, line):
        with pytest.raises(ValueError, match=re.escape(f"bad phase line: {line!r}")):
            load_phases(f"K 5\n{line}\n")

    def test_negative_entry_reduced_mod_2k(self):
        assert load_phases("K 5\n0 -3\n1 12\n").n == (7, 2)

    def test_gap_in_ray_ids_rejected(self):
        with pytest.raises(ValueError, match=r"ray ids 0\.\.N-1"):
            load_phases("K 5\n0 1\n2 3\n")
