"""Phase search and faithfulness verification, exact and high-precision."""

import decimal
import functools
import hashlib
import math
import random
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from mpmath import libmp
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
    rays = [Ray(i, v.flat(), v.sq_norm()) for i, v in enumerate(vecs)]
    n = len(rays)
    from ksembed.exact import hermitian_inner

    adjacency = [set() for _ in range(n)]
    edges = set()
    imaginary = set()
    for i in range(n):
        for j in range(i + 1, n):
            c = hermitian_inner(VecC3.from_flat(rays[i].flat), VecC3.from_flat(rays[j].flat))
            if c.is_zero():
                edges.add((i, j))
                adjacency[i].add(j)
                adjacency[j].add(i)
            elif c.is_purely_imaginary():
                imaginary.add((i, j))
    return Configuration(rays=rays, edges=frozenset(edges),
                         imaginary_pairs=frozenset(imaginary), contexts=[],
                         adjacency=adjacency)


def pairwise_verify_faithful(cfg, pa):
    """Reference for verify_faithful: the fixed-point cross-check evaluated
    on every non-orthogonal pair, with the same units and the same rule, at
    bits + 64 working bits, so that each fixed-point value is within 1/2
    unit of 2^-bits.  From realify.VERIFY_FIRST_BITS, a dot within its
    bound 2^(bits+2) units must be exactly zero, and one beyond it must
    not; an exactly nonzero dot within it is evaluated again at twice the
    bits, up to realify.VERIFY_MAX_BITS."""
    if len(pa.n) != cfg.n_rays:
        raise ValueError(
            f"phase assignment covers {len(pa.n)} rays, configuration has {cfg.n_rays}"
        )
    k, ns = pa.K, pa.n
    k2 = 2 * k
    flats = [ray.flat for ray in cfg.rays]
    spurious, pairs_checked = [], 0
    units, trig = {}, {}  # (bits, c) and (bits, dn) -> fixed-point pair

    def fixed(bits, *xs):
        return tuple(int(mp.nint(mp.ldexp(x, bits))) for x in xs)

    for i in range(cfg.n_rays - 1):
        row = flat_inner_row(flats[i], flats[i + 1:])
        pairs_checked += len(row)
        for j, c in enumerate(row, i + 1):
            a, b = c
            if not (a or b):
                continue
            dn = (ns[j] - ns[i]) % k2
            exact_zero = 2 * a == b and dn % k == 0
            g = math.gcd(a, b)
            bits = realify.VERIFY_FIRST_BITS
            while True:
                u = units.get((bits, c))
                if u is None:
                    with mp.workprec(bits + 64):
                        twice_abs = 2 * mp.sqrt(a * a - a * b + b * b)
                        u = units[bits, c] = fixed(bits, (2 * a - b) / twice_abs,
                                                   mp.sqrt(3) * b / twice_abs)
                cs = trig.get((bits, dn))
                if cs is None:
                    with mp.workprec(bits + 64):
                        theta = mp.pi * dn / k
                        cs = trig[bits, dn] = fixed(bits, mp.cos(theta), mp.sin(theta))
                dot = u[0] * cs[0] - u[1] * cs[1]
                if abs(dot) > 1 << bits + 2:
                    if exact_zero:
                        raise PrecisionDisagreement(
                            f"c = {a // g} + {b // g}w, dn = {dn}: exact says zero, "
                            f"the {bits}-bit value {decimal_text(dot, 1 << 2 * bits, 8)} "
                            f"exceeds its error bound 2^{2 - bits}")
                    break
                if exact_zero:
                    spurious.append((i, j))
                    break
                if 2 * bits > realify.VERIFY_MAX_BITS:
                    raise PrecisionDisagreement(
                        f"c = {a // g} + {b // g}w, dn = {dn}: exact says nonzero, and the "
                        f"value is within its error bound 2^{2 - bits} at {bits} bits, "
                        f"the last before the {realify.VERIFY_MAX_BITS}-bit cap")
                bits *= 2
    return realify.FaithfulnessReport(spurious=spurious, pairs_checked=pairs_checked)


def decimal_text(num, den, digits):
    return format(decimal.Context(prec=digits).divide(decimal.Decimal(num),
                                                      decimal.Decimal(den)), "g")


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
            for z in VecC3.from_flat(ray.flat):
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
    rays = [Ray(i, v.flat(), v.sq_norm()) for i, v in enumerate(vecs)]
    return Configuration(rays=rays, edges=frozenset(), imaginary_pairs=frozenset(),
                         contexts=[], adjacency=[set() for _ in rays])


def verify_outcome(verify, cfg, pa):
    """(spurious, missing, pairs_checked), or (exception type, message)."""
    try:
        fr = verify(cfg, pa)
    except Exception as exc:
        return type(exc), str(exc)
    return fr.spurious, fr.missing, fr.pairs_checked


ORACLE_KS = (5, 7, 11, 13, 1009, 10007, 100003, 2**31 - 1)


@st.composite
def oracle_cases(draw):
    """A random subconfiguration of a committed configuration, a K, and
    phases uniform mod 2K or multiples of K (so dn = 0 and dn = K both
    occur)."""
    n_rays = draw(st.sampled_from((165, 741)))
    ids = sorted(draw(st.sets(st.integers(0, n_rays - 1), min_size=2, max_size=40)))
    k = draw(st.sampled_from(ORACLE_KS))
    if draw(st.booleans()):
        phase = st.integers(0, 2 * k - 1)
    else:
        phase = st.integers(0, 1).map(lambda m: m * k)
    ns = tuple(draw(st.lists(phase, min_size=len(ids), max_size=len(ids))))
    return n_rays, tuple(ids), k, ns


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

# B = 10^51 + 1 and A = (B + 1)/2: the inner product's real part is 1/2
NEARLY_IMAGINARY_PAIR = unvalidated_config(
    VecC3.make(0, 1, 0),
    VecC3.make(1, EisensteinInt((10**51 + 2) // 2, 10**51 + 1), 0),
)


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

    @pytest.mark.parametrize("k", [True, 7.0, Fraction(7), "7", None])
    def test_k_not_an_int_refused(self, k):
        # a bool is an int to isinstance, and 7.0 would pass the range test
        with pytest.raises(InvalidK, match=re.escape(f"K={k!r}:")):
            realify.check_k(k)
        with pytest.raises(InvalidK, match=re.escape(f"K={k!r}:")):
            PhaseAssignment(K=k, n=(0, 1))

    @pytest.mark.parametrize("v", [0.5, 1.0, True, Fraction(1), "1", None])
    def test_phase_not_an_int_refused(self, v):
        # 0.5 would pass as faithful in verify_faithful, then fail in the export
        with pytest.raises(ValueError, match=re.escape(f"n[1]={v!r}:")):
            PhaseAssignment(K=7, n=(0, v))

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

    @pytest.mark.parametrize("k", [1009.0, True])
    def test_k_not_an_int_rejected(self, k):
        with pytest.raises(InvalidK, match=re.escape(f"K={k!r}:")):
            rational_phase_search(IMAGINARY_PAIR, k)

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


ORACLE_EXAMPLES = [
    (165, ALL_165, 1009, ALL_165),
    (165, ALL_165, 1009, (0,) * 165),
    (165, ALL_165, 1009, last_ray_shifted(165, 1009)),
    (165, ALL_165, 11, alternating(165, 11)),
    (165, ALL_165, 1009, alternating(165, 1009)),
    (165, ALL_165, 13, alternating(165, 13)),
    (741, ALL_741, 1009, last_ray_shifted(741, 1009)),
    (741, ALL_741, 1009, ALL_741),
    # past 2^53, where a double-precision locator misplaces the zeros
    (165, ALL_165, 10**18 + 1, ALL_165),
    (165, ALL_165, 10**18 + 1, last_ray_shifted(165, 10**18 + 1)),
    (165, ALL_165, 2**61 - 1, random_phases(165, 2**61 - 1)),
]


def with_oracle_examples(test):
    """``test``, a Hypothesis test of oracle_cases, with each case of
    ORACLE_EXAMPLES as an explicit example."""
    for case in ORACLE_EXAMPLES:
        test = example(case)(test)
    return test


@pytest.fixture
def locator_precisions(monkeypatch):
    """The working precisions of the _zero_near calls made while the test
    runs, each once, in the order of first use."""
    precisions = []
    locate = realify._zero_near

    def recording_locate(y, x, k, pi, bits):
        if bits not in precisions:
            precisions.append(bits)
        return locate(y, x, k, pi, bits)

    monkeypatch.setattr(realify, "_zero_near", recording_locate)
    return precisions


class TestCrossCheckOracle:
    """verify_faithful, which locates the zero phase difference once per
    direction of the distinct inner products, against the per-pair
    reference, which evaluates every dot: the same report, or the same
    exception and message."""

    @with_oracle_examples
    @given(oracle_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_pairwise_reference(self, case):
        n_rays, ids, k, ns = case
        cfg = sub_config(n_rays, ids)
        pa = PhaseAssignment(K=k, n=ns)
        assert verify_outcome(verify_faithful, cfg, pa) == verify_outcome(
            pairwise_verify_faithful, cfg, pa)

    @given(oracle_cases(), st.integers(1, 43))
    @settings(max_examples=30, deadline=None)
    def test_matches_pairwise_reference_on_wide_lanes(self, case, k_m):
        # the rays M^k v (conftest.LIFT) have coefficients near 5^k and inner
        # products 25^k c, so the key lanes A*2^h + B run past 64 bits
        n_rays, ids, k, ns = case
        vecs = lifted([VecC3.from_flat(committed_config(n_rays).rays[i].flat) for i in ids], k_m)
        cfg = configuration_from_vectors(vecs, strict=False)
        pa = PhaseAssignment(K=k, n=ns)
        assert verify_outcome(verify_faithful, cfg, pa) == verify_outcome(
            pairwise_verify_faithful, cfg, pa)

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
            assert verify_outcome(verify_faithful, cfg, pa) == verify_outcome(
                pairwise_verify_faithful, cfg, pa)
        assert verify_faithful(cfg, PhaseAssignment(K=1009, n=(0, 0, 0))).spurious == [
            (0, 1), (1, 2)]

    @pytest.mark.parametrize("z", [EisensteinInt(2, 1), EisensteinInt(1, 2)],
                             ids=["generic", "purely-imaginary"])
    @pytest.mark.parametrize("first_bits", [16, 60])
    def test_multiples_of_one_direction(self, z, first_bits, monkeypatch):
        # ray 0 meets rays 1, 2, 3 in c, 2c and -c: c and 2c are checked
        # once, as one direction, and -c as the opposite direction, from the
        # least precision the locator is proven at (16 bits) or above it
        monkeypatch.setattr(realify, "VERIFY_FIRST_BITS", first_bits)
        vecs = [VecC3.make(1, 0, 0), VecC3.make(z, 1, 0), VecC3.make(2 * z, 1, 0),
                VecC3.make(-z, 1, 0)]
        c = (z.a, z.b)
        assert flat_inner_row(vecs[0].flat(), [v.flat() for v in vecs[1:]]) == [
            c, (2 * c[0], 2 * c[1]), (-c[0], -c[1])]
        cfg = unvalidated_config(*vecs)
        for ns in ((0, 0, 0, 0), (0, 1009, 0, 1009), (0, 1009, 1009, 0), (0, 1, 2, 3)):
            pa = PhaseAssignment(K=1009, n=ns)
            assert verify_outcome(verify_faithful, cfg, pa) == verify_outcome(
                pairwise_verify_faithful, cfg, pa)

    def test_mislocated_zero_is_a_typed_error(self, monkeypatch):
        # the purely imaginary c = i*sqrt3 has its zeros at dn = 0 and K
        # exactly; a locator one off puts them at dn = 1 and K + 1
        locate = realify._zero_near

        def one_off(*args):
            n0, offset = locate(*args)
            return n0 + 1, offset

        monkeypatch.setattr(realify, "_zero_near", one_off)
        with pytest.raises(PrecisionDisagreement,
                           match=r"c = 1 \+ 2w is purely imaginary.*at \[1, 1010\], 0 from"):
            verify_faithful(IMAGINARY_PAIR, PhaseAssignment(K=1009, n=(0, 0)))

    def test_zero_off_the_integer_is_a_typed_error(self, monkeypatch):
        # the same zeros, with n0 right but a nonzero offset
        locate = realify._zero_near

        def off_the_integer(*args):
            n0, offset = locate(*args)
            return n0, offset + Fraction(1, 4)

        monkeypatch.setattr(realify, "_zero_near", off_the_integer)
        with pytest.raises(PrecisionDisagreement,
                           match=r"c = 1 \+ 2w is purely imaginary.*at \[0, 1009\], 0.25 from"):
            verify_faithful(IMAGINARY_PAIR, PhaseAssignment(K=1009, n=(0, 0)))

    @pytest.mark.parametrize("cfg, pa, fault, message", [
        # c = i*sqrt3 has its zeros at dn = 0 and K; n0 one below 0
        (IMAGINARY_PAIR, PhaseAssignment(K=1009, n=(0, 0)),
         lambda k, n0, offset: (n0 - 1, offset),
         r"c = 1 \+ 2w is purely imaginary.*at \[1008, 2017\], 0 from"),
        # c = 2 + w has a zero at dn = 336; n0 one period 2K below it, and the
        # zero put on an integer, so that it is never settled
        (unvalidated_config(VecC3.make(1, 0, 0), VecC3.make(EisensteinInt(2, 1), 1, 0)),
         PhaseAssignment(K=1009, n=(0, 336)),
         lambda k, n0, offset: (n0 - 2 * k, Fraction(0)),
         r"^c = 2 \+ 1w, dn = 336: exact says nonzero"),
    ], ids=["imaginary", "nonzero"])
    def test_messages_name_dn_mod_2k(self, monkeypatch, cfg, pa, fault, message):
        # each message reduces n0 mod 2K, the period of e^{i dn pi/K}
        locate = realify._zero_near

        def faulty(y, x, k, pi, bits):
            return fault(k, *locate(y, x, k, pi, bits))

        monkeypatch.setattr(realify, "_zero_near", faulty)
        with pytest.raises(PrecisionDisagreement, match=message):
            verify_faithful(cfg, pa)

    @pytest.mark.parametrize("fault, raises", [
        (lambda k, bits, offset: Fraction(0), True),
        (lambda k, bits, offset: offset - Fraction(k, 1 << bits + 1), False),
    ], ids=["zero-on-an-integer", "within-the-bound"])
    def test_locator_fault_is_a_typed_error(self, monkeypatch, fault, raises):
        # c = 2 + w, 2 Re c = 3 and 2 Im c = sqrt3, has its zeros at
        # dn = K/3 (mod K): n0 = 336 and offset 1/3 at K = 1009.  A locator
        # that puts them on an integer is never settled, while one off by
        # half its bound still settles the direction at the first precision
        locate = realify._zero_near

        def faulty(y, x, k, pi, bits):
            n0, offset = locate(y, x, k, pi, bits)
            assert n0 == 336 and abs(offset - Fraction(1, 3)) <= Fraction(k, 1 << bits)
            return n0, fault(k, bits, offset)

        monkeypatch.setattr(realify, "_zero_near", faulty)
        cfg = unvalidated_config(VecC3.make(1, 0, 0), VecC3.make(EisensteinInt(2, 1), 1, 0))
        pa = PhaseAssignment(K=1009, n=(0, 336))
        if raises:
            with pytest.raises(PrecisionDisagreement,
                               match=r"^c = 2 \+ 1w, dn = 336: exact says nonzero, .* at "
                                     r"8192 bits, the last before the 8192-bit cap$"):
                verify_faithful(cfg, pa)
        else:
            assert verify_outcome(verify_faithful, cfg, pa) == ([], [], 1)

    @pytest.mark.parametrize("dn, spurious", [(1, []), (10**17 + 1, [(0, 1)])])
    def test_guard_passes_at_15_digits_below_its_bound(self, dn, spurious):
        # at K = 10^17 + 1, c = i*sqrt3 has its zeros at dn = 0 and K
        # exactly: dn = 1 is not one of them, dn = K is
        pa = PhaseAssignment(K=10**17 + 1, n=(0, dn))
        assert verify_outcome(verify_faithful, IMAGINARY_PAIR, pa) == verify_outcome(
            pairwise_verify_faithful, IMAGINARY_PAIR, pa) == (spurious, [], 1)

    def test_guard_passes_at_60_digits(self):
        pa = PhaseAssignment(K=10**15 + 1, n=(0, 1))
        fr = verify_faithful(IMAGINARY_PAIR, pa)
        assert fr.faithful and fr.pairs_checked == 1

    @pytest.mark.parametrize("first_bits", [16, 60])
    def test_guard_passes_at_largest_oracle_k(self, full_config, first_bits, monkeypatch):
        monkeypatch.setattr(realify, "VERIFY_FIRST_BITS", first_bits)
        pa = rational_phase_search(full_config, 2**31 - 1, "distinct")
        fr = verify_faithful(full_config, pa)
        assert fr.faithful and fr.pairs_checked == 13530

    def test_741_rays_at_k_past_10_to_the_51(self, locator_precisions):
        # the locator's bound K*2^-bits is past 1/2 up to 128 bits, where no
        # direction could settle, so the first precision is 256 bits, and
        # it decides every direction
        cfg = committed_config(741)
        fr = verify_faithful(cfg, rational_phase_search(cfg, 10**51 + 1))
        assert fr.faithful and fr.spurious == [] and fr.pairs_checked == 274170
        assert locator_precisions == [256]

    def test_nearly_imaginary_c_is_decided_by_doubling(self, locator_precisions):
        # c = <(0, 1, 0), (1, A + Bw, 0)> has 2 Re c = 2A - B = 1 and
        # |c| ~ 8.7e50, so its zero lies K*atan2(1, sqrt3*B)/pi ~ 1.9e-49
        # from dn = 0: not on it, decided at 256 bits, the first doubling
        # whose bound K*2^-bits is below that
        pa = PhaseAssignment(K=1009, n=(0, 0))
        assert verify_outcome(verify_faithful, NEARLY_IMAGINARY_PAIR, pa) == verify_outcome(
            pairwise_verify_faithful, NEARLY_IMAGINARY_PAIR, pa) == ([], [], 1)
        assert locator_precisions == [64, 128, 256]

    def test_cap_is_a_typed_error(self, monkeypatch):
        # with the cap at 128 bits the same dot stays undecided
        monkeypatch.setattr(realify, "VERIFY_MAX_BITS", 128)
        (a, b), = flat_inner_row(NEARLY_IMAGINARY_PAIR.rays[0].flat,
                                 [NEARLY_IMAGINARY_PAIR.rays[1].flat])
        with pytest.raises(PrecisionDisagreement,
                           match=rf"^c = {a} \+ {b}w, dn = 0: exact says nonzero, .* "
                                 r"at 128 bits, the last before the 128-bit cap$"):
            verify_faithful(NEARLY_IMAGINARY_PAIR, PhaseAssignment(K=1009, n=(0, 0)))

    @pytest.mark.parametrize("case", ORACLE_EXAMPLES)
    def test_doubling_from_8_bits_gives_the_same_reports(self, case, monkeypatch,
                                                          locator_precisions):
        # the first precision is forced down to 16 bits, not the 8 of this
        # test's name: 16 is the least _atan is proven at.  It settles every
        # direction of 165 rays at K <= 1009, while the 741-ray directions
        # need one doubling.  At K >= 10^18, K*2^-bits >= 1/2 up to 32 bits,
        # so the locator starts at 64 bits and doubles once
        n_rays, ids, k, ns = case
        cfg, pa = sub_config(n_rays, ids), PhaseAssignment(K=k, n=ns)
        expected = verify_outcome(verify_faithful, cfg, pa)
        monkeypatch.setattr(realify, "VERIFY_FIRST_BITS", 16)
        locator_precisions.clear()
        assert verify_outcome(verify_faithful, cfg, pa) == expected
        first, doublings = (64, 1) if k >= 10**18 else (16, 1 if n_rays == 741 else 0)
        assert locator_precisions == [first << d for d in range(doublings + 1)]

    @given(st.integers(-2**64, 2**64), st.integers(-2**64, 2**64), st.booleans(),
           st.integers(0, (2**256 - 5) // 6), st.sampled_from((1, 5)),
           st.sampled_from(("uniform", "0 or K", "zero")), st.integers(0, 2**257))
    @settings(max_examples=40, deadline=None)
    @example(1, 1, False, (2**256 - 5) // 6, 5, "zero", 0)
    @example(3, 0, True, (2**256 - 5) // 6, 5, "zero", 0)
    def test_random_directions_at_huge_k(self, a, b, imaginary, m, r, phase, u):
        # rays (1, 0, 0) and (z, 1, 0) meet in c = z, of any direction, at
        # K = 6m + r, coprime to 6, up to 2^256; dn is uniform mod 2K, 0 or
        # K, or the integer nearest a zero of the dot, where |dot| <~ |c|*pi/K
        if imaginary:
            b = 2 * a
        k = 6 * m + r
        cfg = unvalidated_config(VecC3.make(1, 0, 0), VecC3.make(EisensteinInt(a, b), 1, 0))
        (ca, cb), = flat_inner_row(cfg.rays[0].flat, [cfg.rays[1].flat])
        with mp.workprec(2 * k.bit_length() + 64):
            zero = int(mp.nint(k * mp.atan2(2 * ca - cb, mp.sqrt(3) * cb) / mp.pi))
        dn = {"uniform": u % (2 * k), "0 or K": u % 2 * k, "zero": zero % (2 * k)}[phase]
        pa = PhaseAssignment(K=k, n=(0, dn))
        exact = (ca or cb) and is_spurious_exact(EisensteinInt(ca, cb), dn, k)
        assert verify_outcome(verify_faithful, cfg, pa) == verify_outcome(
            pairwise_verify_faithful, cfg, pa) == ([(0, 1)] if exact else [], [], 1)


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

    @pytest.mark.parametrize("precision", [20.5, 20.0, True, Fraction(20), "20"])
    def test_precision_not_an_int_refused(self, precision):
        cfg = unvalidated_config(VecC3.make(OMEGA, 0, 0))
        pa = PhaseAssignment(K=1009, n=(0,))
        got = re.escape(f"got {precision!r}")
        with pytest.raises(ValueError, match=got):
            realify.check_precision(precision)
        with pytest.raises(ValueError, match=got):
            phase_apply_export(cfg, pa, precision)

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
        vecs = lifted([VecC3.from_flat(committed_config(n_rays).rays[i].flat) for i in ids], k_m)
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

        def recording_row(vec, nk, fp, ctx):
            precs.append(fp.w + 8)
            return real_row(vec, nk, fp, ctx)

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

        def recording_fields(values, shift, ctx):
            real_slots.append(values[0])
            return real_fields(values, shift, ctx)

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
        # 10 digits is refused after one more pass, at the cap
        cfg = sub_config(165, [7])
        pa = PhaseAssignment(K=1009, n=(1,))
        calls = []
        real_row = realify._export_row

        def counting_row(vec, nk, fp, ctx):
            calls.append(fp.w + 8)
            return real_row(vec, nk, fp, ctx)

        monkeypatch.setattr(realify, "_export_row", counting_row)
        monkeypatch.setattr(realify, "EXPORT_GUARD_DIGITS", -10)
        monkeypatch.setattr(realify, "EXPORT_MAX_GUARD_DIGITS", 0)
        with pytest.raises(ExportUndecided, match="ray 0: a field of 15 digits is undecided"):
            phase_apply_export(cfg, pa, 15)
        first, cap = libmp.dps_to_prec(5), libmp.dps_to_prec(15)
        assert calls == [first, 2 * first, cap]

    @pytest.mark.parametrize("k, precision", [
        (10**18 + 1, 975),  # the first pass is at 3,292 bits, the cap at 6,564
        (10**18 + 1, 1000),  # 3,375 bits, and twice that is past the 6,647-bit cap
        (10**600 + 1, 20),  # 1,920 bits leave sin(pi/K) undecided; the cap is 3,392
    ], ids=["1e18-p975", "1e18-p1000", "1e600-p20"])
    def test_last_pass_is_at_the_cap(self, k, precision):
        cfg = rays_config([VecC3.make(1, 0, 0)])
        pa = PhaseAssignment(K=k, n=(1,))
        rows = phase_apply_export(cfg, pa, precision)
        assert rows == reference_phase_apply_export(cfg, pa, precision)
        if k == 10**600 + 1:
            assert rows[0][3] == "3.1415926535897932385e-600"

    def test_passes_evaluate_only_undecided_rays(self, monkeypatch):
        # (1, 0, 0) at n = 0 is exact in the first pass; at n = 1 its
        # sin(pi/K) ~ 3.1e-600 needs every doubling and then the cap
        calls = []
        real_row = realify._export_row

        def recording_row(vec, nk, fp, ctx):
            calls.append((nk, fp.w + 8))
            return real_row(vec, nk, fp, ctx)

        monkeypatch.setattr(realify, "_export_row", recording_row)
        cfg = rays_config([VecC3.make(1, 0, 0)] * 2)
        phase_apply_export(cfg, PhaseAssignment(K=10**600 + 1, n=(0, 1)), 20)
        assert calls == [(0, 120), (1, 120), (1, 240), (1, 480), (1, 960), (1, 1920),
                         (1, 3392)]

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
        ctx = decimal.Context(prec=15, rounding=decimal.ROUND_HALF_EVEN)
        assert realify._decimal_fields(values, 200, ctx) == expected

    def test_wide_real_ray_at_half_turn(self):
        # (5^30, 0, 0) = conftest.LIFT^30 (1, 0, 0): sin(pi) evaluated at 30
        # digits, times 5^30, would read 1.6e-10 in the imaginary slot
        vecs = lifted([VecC3.make(1, 0, 0)], 30)
        rows = phase_apply_export(rays_config(vecs), PhaseAssignment(K=1009, n=(1009,)), 15)
        assert rows == [("-9.31322574615479e+20", "0", "0", "0", "0", "0")]


TRIG_KS = (5, 7, 11, 13, 1009, 1223, 10**18 + 1, 2**61 - 1)
LOCATOR_EDGES = [
    (0, 5), (0, -5), (5, 0), (-5, 0),  # the axes
    (5, 5), (5, -5), (-5, 5), (-5, -5),  # octant boundaries
    (2**200, 2**200 - 1), (2**200 - 1, 2**200), (-(2**200), 2**200 - 1),
    (0, 3 * 2**200), (0, -(3 * 2**200)),  # re = 0: c purely imaginary
]


def mp_fixed(x, p):
    """The real mpf x in units of 2^-p, unrounded."""
    return mp.ldexp(x, p)


class TestIntegerTrig:
    """The integer helpers against mpmath at 64 or more bits beyond theirs."""

    @pytest.mark.parametrize("p", [10, 11, 16, 31, 58, 64, 112, 208, 1000, 3400])
    def test_pi_within_one_unit(self, p):
        with mp.workprec(p + 64):
            assert abs(realify._pi(p) - mp_fixed(mp.pi, p)) <= 1

    @pytest.mark.parametrize("dps", [15, 20, 60, 1000])
    @pytest.mark.parametrize("k", TRIG_KS)
    def test_cos_sin_within_one_unit(self, k, dps):
        w = libmp.dps_to_prec(dps)
        fp = realify._FixedPoint(k, w)
        rng = random.Random(k * dps)
        ns = [rng.randrange(2 * k) for _ in range(4 if dps == 1000 else 40)]
        ns += [1, 2, k - 1, k + 1, 2 * k - 1]
        with mp.workprec(w + 64):
            for n in ns:
                c, s = fp.cos_sin(n)
                theta = mp.pi * n / k
                assert abs(c - mp_fixed(mp.cos(theta), w)) <= 1, n
                assert abs(s - mp_fixed(mp.sin(theta), w)) <= 1, n
        # exact at n = 0 (mod K), as the zero fields and verdicts need
        assert [fp.cos_sin(n) for n in (0, k, 2 * k, -k)] == [
            (1 << w, 0), (-(1 << w), 0), (1 << w, 0), (-(1 << w), 0)]

    @pytest.mark.parametrize("precision", [15, 16, 20, 33, 40, 60, 100, 333, 1000])
    def test_export_works_at_dps_to_prec(self, precision, monkeypatch):
        # the first evaluation's W + 8 is mpmath's width for precision + 15 digits
        widths = []
        real_row = realify._export_row

        def recording_row(vec, nk, fp, ctx):
            widths.append(fp.w + 8)
            return real_row(vec, nk, fp, ctx)

        monkeypatch.setattr(realify, "_export_row", recording_row)
        phase_apply_export(sub_config(165, [7]), PhaseAssignment(K=1009, n=(1,)), precision)
        assert widths == [libmp.dps_to_prec(precision + realify.EXPORT_GUARD_DIGITS)]

    @given(st.integers(0, 2**300), st.integers(1, 2**300), st.sampled_from((16, 22, 58, 208)))
    @settings(max_examples=200, deadline=None)
    @example(0, 1, 16)
    @example(1, 1, 16)
    @example(2**300, 2**300, 208)
    @example(1, 2**300, 58)
    def test_atan_within_one_unit(self, s, r, p):
        s, r = min(s, r), max(s, r)
        with mp.workprec(p + 64):
            ref = mp_fixed(mp.atan(mp.mpf(s) / r), p)
        assert abs(realify._atan(s, r, p) - ref) <= 1

    @given(st.integers(-2**240, 2**240), st.integers(-2**240, 2**240),
           st.sampled_from(TRIG_KS), st.sampled_from((12, 40, 200)))
    @settings(max_examples=300, deadline=None)
    def test_locator_against_atan2(self, y, x, k, extra):
        if y or x:
            assert self.locator_agrees(y, x, k, k.bit_length() + extra)

    @pytest.mark.parametrize("y, x", LOCATOR_EDGES)
    @pytest.mark.parametrize("k", TRIG_KS)
    def test_locator_edges(self, y, x, k):
        bits = k.bit_length() + 12
        assert self.locator_agrees(y, x, k, bits)
        if y == 0:  # zeros at dn = 0 and K exactly
            assert realify._zero_near(y, x, k, realify._pi(bits), bits) == (
                0 if x > 0 else k, 0)

    @given(st.one_of(st.sampled_from(LOCATOR_EDGES),
                     st.tuples(st.integers(-2**240, 2**240), st.integers(-2**240, 2**240))),
           st.sampled_from(TRIG_KS), st.sampled_from((16, 64, 128, 256)))
    @settings(max_examples=300, deadline=None)
    def test_locator_within_its_bound(self, c, k, bits):
        # as verify_faithful calls it, with (re, b) = (2 Re c, 2 Im c/sqrt3):
        # n0 + offset is within K*2^-bits of K*atan2(re, sqrt3*b)/pi, the
        # bound that settles a direction; exact when c is purely imaginary
        re, b = c
        if not (re or b):
            return
        n0, offset = realify._zero_near(re << bits, b * math.isqrt(3 << 2 * bits), k,
                                        realify._pi(bits), bits)
        assert abs(offset) <= Fraction(1, 2)
        with mp.workprec(bits + k.bit_length() + 64):
            target = k * mp.atan2(re, mp.sqrt(3) * b) / mp.pi
            located = n0 + mp.mpf(offset.numerator) / offset.denominator
            assert abs(located - target) <= mp.ldexp(k, -bits)
        if re == 0:
            assert (n0, offset) == (0 if b > 0 else k, 0)

    @staticmethod
    def locator_agrees(y, x, k, bits):
        """_zero_near's n0 is within K*2^(1-bits) of K*atan2(y, x)/pi, by
        mpf_atan2: the integer nearest it, or either one when that is not
        decided."""
        n0, _ = realify._zero_near(y, x, k, realify._pi(bits), bits)
        prec = bits + k.bit_length() + 64
        with mp.workprec(prec):
            alpha = mp.mpf(libmp.mpf_atan2(libmp.from_int(y), libmp.from_int(x), prec,
                                            libmp.round_nearest))
            target = k * alpha / mp.pi
            slack = mp.ldexp(k, 1 - bits)
            return (mp.floor(target - slack + mp.mpf(1) / 2) <= n0
                    <= mp.floor(target + slack + mp.mpf(1) / 2))


class TestWorkCounts:
    """The realification arithmetic runs in integers: one table of roots of
    unity per working precision of an export call, one _FixedPoint.cos_sin
    product per angle, one locator call per direction and precision, no
    cosine or sine in verify_faithful, and no use of mpmath."""

    def test_one_cos_sin_call_per_angle(self, monkeypatch):
        calls = {"cos_sin": 0, "cis": 0, "row": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(realify._FixedPoint, "cos_sin",
                            counting("cos_sin", realify._FixedPoint.cos_sin))
        monkeypatch.setattr(realify, "_cis", counting("cis", realify._cis))
        monkeypatch.setattr(realify, "_export_row", counting("row", realify._export_row))
        cfg = committed_config(741)
        pa = rational_phase_search(cfg, 1009, "distinct")
        phase_apply_export(cfg, pa, 20)
        # one per ray; one evaluation per ray (no retry), so one table of
        # bit_length(2K) = 11 roots
        assert calls == {"cos_sin": 741, "cis": 11, "row": 741}
        calls.update(cos_sin=0, cis=0, row=0)
        assert verify_faithful(cfg, pa).pairs_checked == 274170
        # the cross-check locates zeros by atan2 alone
        assert calls == {"cos_sin": 0, "cis": 0, "row": 0}

    def test_one_locator_call_per_direction(self, monkeypatch):
        # the real rays (1, x, 0) meet in the real c = 1 + xy, all of one
        # direction, and (1, 2w, 0) meets each in its own direction
        vecs = [VecC3.make(1, x, 0) for x in range(1, 201)] + [VecC3.make(1, 2 * OMEGA, 0)]
        flats = [v.flat() for v in vecs]
        values = {c for i, f in enumerate(flats) for c in flat_inner_row(f, flats[i + 1:])}
        values.discard((0, 0))
        directions = {(a // math.gcd(a, b), b // math.gcd(a, b)) for a, b in values}
        calls = []
        locate = realify._zero_near
        monkeypatch.setattr(realify, "_zero_near", lambda *args: calls.append(args) or locate(*args))
        fr = verify_faithful(rays_config(vecs), PhaseAssignment(K=1009, n=tuple(range(201))))
        assert fr.faithful and fr.pairs_checked == 201 * 200 // 2
        assert len(calls) == len(directions) == 201 < len(values)

    def test_independent_of_global_precision(self, full_config):
        cases = [PhaseAssignment(K=1009, n=(0,) * 165),
                 PhaseAssignment(K=1009, n=last_ray_shifted(165, 1009)),
                 PhaseAssignment(K=10**15 + 1, n=ALL_165),
                 rational_phase_search(full_config, 1009, "distinct")]
        expected = [(verify_outcome(verify_faithful, full_config, pa),
                     phase_apply_export(full_config, pa, 20)) for pa in cases]
        with mp.workdps(5):
            prec = mp.mp.prec
            for pa, (outcome, rows) in zip(cases, expected):
                assert verify_outcome(verify_faithful, full_config, pa) == outcome
                assert mp.mp.prec == prec
                assert phase_apply_export(full_config, pa, 20) == rows
                assert mp.mp.prec == prec


@st.composite
def mutated_phase_files(draw):
    """save_phases output for a drawn assignment after one line mutation,
    the header included: the line deleted, duplicated, or one of its
    whitespace-separated fields dropped, or replaced (or one appended) by a
    wide integer or by short text over the file's own characters and a few
    others."""
    k = draw(st.sampled_from((1, 5, 7, 1009, 10**18 + 1)))
    ns = draw(st.lists(st.integers(0, 2 * k - 1), min_size=1, max_size=12))
    lines = save_phases(PhaseAssignment(K=k, n=tuple(ns))).splitlines()
    # the header about half the time, the one line that holds K
    i = draw(st.one_of(st.just(0), st.integers(1, len(lines) - 1)))
    op = draw(st.sampled_from(("delete", "duplicate", "alter")))
    if op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    else:
        fields = lines[i].split()
        j = draw(st.integers(0, len(fields)))
        fields[j:j + 1] = [draw(st.one_of(
            st.just(""),
            st.integers(-10**30, 10**30).map(str),
            st.text(alphabet="0123456789K-+#_. \t\uff15", max_size=8)))]
        lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


class TestFiles:
    @given(mutated_phase_files())
    @settings(max_examples=200, deadline=None)
    @example("K\n0 1\n")  # the header's value dropped
    @example("0 1\n")  # the header deleted
    @example("K 5\n")  # the only ray line deleted
    def test_mutated_phase_file_loads_or_raises_value_error(self, text):
        # a ValueError (InvalidK included) or an assignment that round-trips;
        # any other exception fails the test
        try:
            pa = load_phases(text)
        except ValueError:
            return
        assert load_phases(save_phases(pa)) == pa

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

    @pytest.mark.parametrize("text, message", [
        ("x" * 100_000 + "\n0 3\n",
         "phase file must start with a 'K <value>' header, got 'xxxxxxxxxxxxxxxxxxxx'..."),
        ("K 5\n0 " + "x" * 100_000 + "\n", "bad phase line: '0 xxxxxxxxxxxxxxxxxx'..."),
    ], ids=["header", "entry"])
    def test_long_line_is_echoed_cut(self, text, message):
        with pytest.raises(ValueError) as err:
            load_phases(text)
        assert str(err.value) == message
        assert len(str(err.value)) < 200

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="int() converts any length here")
    @pytest.mark.parametrize("template, message", [
        ("K {}\n0 3\n", "phase file header: K of"),
        ("K 5\n0 {}\n", "bad phase line '0 1111"),
    ])
    def test_integer_past_the_int_digit_limit(self, template, message):
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_phases(template.format(digits))

    def test_negative_entry_reduced_mod_2k(self):
        assert load_phases("K 5\n0 -3\n1 12\n").n == (7, 2)

    def test_gap_in_ray_ids_rejected(self):
        with pytest.raises(ValueError, match=r"ray ids 0\.\.N-1"):
            load_phases("K 5\n0 1\n2 3\n")
