"""Configuration generation: canonical forms, MUBs, closure, file round-trips."""

import functools
import hashlib
import inspect
import random
import re
import sys
import warnings
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from conftest import lifted
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ksembed import configuration
from ksembed.configuration import (
    DivergenceGuard,
    DuplicateRay,
    NonTriangleClique,
    ParseError,
    ZeroVector,
    build_contexts,
    canonicalize,
    closure_generate,
    configuration_from_vectors,
    export_rays,
    ingest_rays,
    is_unbiased,
    mub_bases,
    mub_seed,
    subconfiguration,
)
from ksembed.exact import (
    EISENSTEIN_UNITS,
    OMEGA,
    OMEGA2,
    EisensteinInt,
    VecC3,
    conj_cross,
    cross,
    flat_canonical,
    flat_conj_cross,
    flat_inner_row,
    flat_sq_norm,
    hermitian_inner,
)

small_int = st.integers(min_value=-4, max_value=4)
nonzero_vec = st.builds(
    VecC3.make,
    st.builds(EisensteinInt, small_int, small_int),
    st.builds(EisensteinInt, small_int, small_int),
    st.builds(EisensteinInt, small_int, small_int),
).filter(lambda v: not v.is_zero())


def canonicalize_reference(v: VecC3) -> VecC3:
    """Independent reimplementation via Q(w) arithmetic: divide every
    coordinate by the first nonzero one, z / z0 = z * conj(z0) / norm(z0)
    with Fraction coefficients, then clear the common denominator."""
    z0 = next(z for z in v if not z.is_zero())
    n = z0.norm()
    quotients = [(Fraction(p.a, n), Fraction(p.b, n)) for p in (z * z0.conjugate() for z in v)]
    denom = lcm(*(x.denominator for q in quotients for x in q))
    return VecC3(tuple(EisensteinInt(int(a * denom), int(b * denom)) for a, b in quotients))


class TestCanonicalize:
    def test_unit_multiple_of_basis_vector(self):
        assert canonicalize(VecC3.make(2 * OMEGA, 0, 0)) == VecC3.make(1, 0, 0)

    def test_divide_by_omega(self):
        got = canonicalize(VecC3.make(OMEGA, OMEGA2, 1))
        assert got == VecC3.make(1, OMEGA, OMEGA2)

    def test_common_unit_factor(self):
        v = VecC3.make(0, EisensteinInt(1, 1), EisensteinInt(-1, -1))
        assert canonicalize(v) == VecC3.make(0, 1, -1)

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVector):
            canonicalize(VecC3.make(0, 0, 0))

    @given(nonzero_vec)
    def test_idempotent(self, v):
        c = canonicalize(v)
        assert canonicalize(c) == c

    @given(nonzero_vec)
    def test_first_nonzero_coordinate_positive_integer(self, v):
        c = canonicalize(v)
        lead = next(z for z in c if not z.is_zero())
        assert lead.b == 0 and lead.a > 0

    @given(nonzero_vec)
    def test_constant_on_parallel_classes(self, v):
        c = canonicalize(v)
        multipliers = list(EISENSTEIN_UNITS) + [
            EisensteinInt(2, 0),
            EisensteinInt(1, 1),
        ]
        for s in multipliers:
            assert canonicalize(v.scale(s)) == c

    @given(nonzero_vec)
    def test_against_rational_reference(self, v):
        assert canonicalize(v) == canonicalize_reference(v)


class TestMubBases:
    def test_computational_basis_present(self, bases):
        assert VecC3.make(1, 0, 0) in bases[0]

    def test_each_basis_internally_orthogonal(self, bases):
        for basis in bases:
            for i in range(3):
                for j in range(i + 1, 3):
                    assert hermitian_inner(basis[i], basis[j]).is_zero()

    def test_fourier_basis_orthogonality_example(self, bases):
        assert hermitian_inner(
            VecC3.make(1, 1, 1), VecC3.make(1, OMEGA, OMEGA2)
        ).is_zero()

    def test_all_54_cross_pairs_unbiased(self, bases):
        checked = 0
        for a in range(4):
            for b in range(a + 1, 4):
                for u in bases[a]:
                    for v in bases[b]:
                        assert is_unbiased(u, v)
                        checked += 1
        assert checked == 54

    def test_unbiasedness_hand_example(self):
        # <(1,1,1),(1,1,w)> = 2 + w, norm 3 = (3*3)/3
        u, v = VecC3.make(1, 1, 1), VecC3.make(1, 1, OMEGA)
        c = hermitian_inner(u, v)
        assert c == EisensteinInt(2, 1)
        assert c.norm() == 3
        assert is_unbiased(u, v)


class TestClosure:
    def test_basis_seed_fixed_point(self):
        cfg = closure_generate(mub_bases()[0])
        assert cfg.n_rays == 3
        assert len(cfg.contexts) == 1

    def test_two_ray_seed_closes_with_third(self):
        cfg = closure_generate([VecC3.make(1, 0, 0), VecC3.make(0, 1, 1)])
        assert cfg.n_rays == 3
        vecs = {VecC3.from_flat(r.flat) for r in cfg.rays}
        assert vecs == {
            VecC3.make(1, 0, 0),
            VecC3.make(0, 1, 1),
            VecC3.make(0, 1, -1),
        }
        assert len(cfg.contexts) == 1

    def test_full_configuration_counts(self, full_config):
        assert full_config.n_rays == 165
        assert len(full_config.contexts) == 130
        # regression constant: brute-force pairwise scan over all 13,530 pairs
        assert len(full_config.edges) == 390

    def test_pairs_classified_at_assembly(self, full_config):
        zero, imaginary = set(), set()
        for i in range(165):
            for j in range(i + 1, 165):
                c = hermitian_inner(VecC3.from_flat(full_config.rays[i].flat),
                                    VecC3.from_flat(full_config.rays[j].flat))
                if c.is_zero():
                    zero.add((i, j))
                elif c.is_purely_imaginary():
                    imaginary.add((i, j))
        assert full_config.edges == zero
        assert full_config.imaginary_pairs == imaginary
        assert len(imaginary) == 636

    def test_mub_rays_are_members(self, full_config):
        vecs = {VecC3.from_flat(r.flat) for r in full_config.rays}
        for v in mub_seed():
            assert v in vecs

    def test_all_rays_content_free(self, full_config):
        # every squared norm divides 6, so 1 - w is the only prime of Z[w]
        # that could divide all three coordinates, and 1 - w divides z iff
        # 3 divides norm(z)
        for r in full_config.rays:
            assert 6 % r.sq_norm == 0
            assert any(z.norm() % 3 for z in VecC3.from_flat(r.flat))

    def test_published_coefficient_alphabet(self, full_config):
        def ok(z):
            a, b = z.a, z.b
            if b == 0:
                return abs(a) <= 2
            if a == 0:
                return abs(b) <= 2
            return a == b and abs(a) <= 2

        assert all(ok(z) for r in full_config.rays for z in VecC3.from_flat(r.flat))

    def test_closed_under_orthogonal_completion(self, full_config):
        from ksembed.exact import conj_cross

        vecs = {VecC3.from_flat(r.flat) for r in full_config.rays}
        for i, j in full_config.edges:
            w = canonicalize(conj_cross(VecC3.from_flat(full_config.rays[i].flat),
                                        VecC3.from_flat(full_config.rays[j].flat)))
            assert w in vecs

    def test_fixed_point_of_filtered_insertion(self, full_config):
        # any non-parallel pair: the completion is in the set, or is filtered
        # out by the norm rule; spot-check a random sample of pairs
        from ksembed.exact import conj_cross

        vecs = {VecC3.from_flat(r.flat) for r in full_config.rays}
        rng = random.Random(5)
        for _ in range(500):
            i, j = rng.sample(range(full_config.n_rays), 2)
            w = cross(VecC3.from_flat(full_config.rays[i].flat),
                      VecC3.from_flat(full_config.rays[j].flat))
            if w.is_zero():
                continue
            c = canonicalize(conj_cross(VecC3.from_flat(full_config.rays[i].flat),
                                        VecC3.from_flat(full_config.rays[j].flat)))
            assert c in vecs or 6 % c.sq_norm() != 0

    def test_cap_admits_exactly_its_ray_count(self):
        # the guard fires on the first ray past the cap, not on reaching it
        assert closure_generate(mub_seed(), cap=165).n_rays == 165
        with pytest.raises(DivergenceGuard, match="^closure exceeded 164 rays;"):
            closure_generate(mub_seed(), cap=164)

    @pytest.mark.parametrize("cap", [0, -1, 165.0, True, "7", None])
    def test_cap_not_a_positive_int_refused(self, cap, monkeypatch):
        seed = mub_seed()
        monkeypatch.setattr(configuration, "flat_canonical", None)  # refused before any work
        with pytest.raises(ValueError, match=re.escape(f"cap must be a positive int, not {cap!r}")):
            closure_generate(seed, cap=cap)

    def test_cap_counts_the_seed_rays(self):
        basis = mub_bases()[0]
        assert closure_generate(basis * 2, cap=3).n_rays == 3
        with pytest.raises(DivergenceGuard, match="^closure exceeded 2 rays;"):
            closure_generate(basis, cap=2)

    def test_default_cap(self):
        assert inspect.signature(closure_generate).parameters["cap"].default == 10_000

    def test_deterministic_under_seed_permutation(self, full_config):
        seed = mub_seed()
        rng = random.Random(99)
        rng.shuffle(seed)
        cfg2 = closure_generate(seed)
        assert [r.flat for r in cfg2.rays] == [r.flat for r in full_config.rays]
        assert cfg2.edges == full_config.edges
        assert cfg2.contexts == full_config.contexts

    def test_empty_seed_rejected(self):
        with pytest.raises(ZeroVector):
            closure_generate([])


def closure_reference(seed, bound, cap):
    """The closure as a plain loop: canonicalize every product, then check
    whether it is new and whether its norm divides ``bound``; returns the
    canonical flats in insertion order."""
    vecs, seen = [], set()
    for v in seed:
        c = flat_canonical(v.flat())
        if c not in seen:
            seen.add(c)
            vecs.append(c)
    i = 0
    while i < len(vecs):
        for j in range(i):
            c = flat_canonical(flat_conj_cross(vecs[i], vecs[j]))
            if c in seen or bound % flat_sq_norm(c) != 0:
                continue
            seen.add(c)
            vecs.append(c)
            if len(vecs) > cap:
                raise DivergenceGuard(f"more than {cap} rays")
        i += 1
    return vecs


def coordinate_norms(x):
    return [a * a - a * b + b * b for a, b in zip(x[::2], x[1::2])]


# MUB rays and small flats, so that drawn seeds both close and diverge
seed_flat = st.one_of(st.sampled_from([v.flat() for v in mub_seed()]),
                      st.tuples(*[st.integers(-2, 2)] * 6).filter(any))


class TestClosurePretest:
    """closure_generate skips a product x before canonicalizing it when
    |x|^2 does not divide bound * n_k0, the norm of x's first nonzero
    coordinate, or exceeds bound * gcd of its coordinate norms; both skips
    are exact."""

    @given(st.tuples(st.integers(0, 2), st.tuples(*[st.integers(-1000, 1000)] * 6))
           .map(lambda zx: (0, 0) * zx[0] + zx[1][2 * zx[0]:]).filter(any))
    @example((0, 0, 2, 1, -1, 3))
    @example((0, 0, 0, 0, 6, -3))
    @example((0, 0, 3, 6, 9, 0))
    @settings(max_examples=300, deadline=None)
    def test_canonical_norm_times_leading_norm(self, x):
        # S * n_k0 = t^2 * |x|^2, t the canonical form's leading coordinate
        norms = coordinate_norms(x)
        k0 = next(k for k, n in enumerate(norms) if n)
        c = flat_canonical(x)
        t = c[2 * k0]
        assert c[:2 * k0] == (0, 0) * k0 and c[2 * k0 + 1] == 0 and t > 0
        assert flat_sq_norm(c) * norms[k0] == t * t * sum(norms)

    @given(st.tuples(*[st.integers(-20, 20)] * 6).filter(any))
    @settings(max_examples=300, deadline=None)
    def test_canonical_norm_bound(self, x):
        norms = coordinate_norms(x)
        assert flat_sq_norm(flat_canonical(x)) * gcd(*norms) >= sum(norms)

    def test_matches_reference_at_published_bound(self, full_config):
        ref = closure_reference(mub_seed(), 6, 10_000)
        assert sorted((flat_sq_norm(f), f) for f in ref) == [
            (r.sq_norm, r.flat) for r in full_config.rays]

    @given(st.lists(seed_flat, min_size=2, max_size=5), st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_on_drawn_seeds(self, flats, bound):
        seed = [VecC3.from_flat(f) for f in flats]
        try:
            ref = sorted((flat_sq_norm(f), f) for f in closure_reference(seed, bound, 60))
        except DivergenceGuard:
            with pytest.raises(DivergenceGuard):
                closure_generate(seed, bound, cap=60, strict=False)
            return
        cfg = closure_generate(seed, bound, cap=60, strict=False)
        assert [(r.sq_norm, r.flat) for r in cfg.rays] == ref

    @pytest.mark.parametrize("bound, n_rays, n_calls", [(6, 165, 2850), (18, 741, 23046)])
    def test_canonicalization_calls_on_the_mub_seed(self, bound, n_rays, n_calls, monkeypatch):
        seed = mub_seed()
        calls = []

        def counted(v):
            calls.append(v)
            return flat_canonical(v)

        monkeypatch.setattr(configuration, "flat_canonical", counted)
        assert closure_generate(seed, bound, strict=False).n_rays == n_rays
        # the 12 seed rays and the products that pass both pretests; at
        # bound 6 every such product is new or already seen (2,838), and
        # canonicalizing all 13,530 products would make 13,542 calls
        assert len(calls) == n_calls

    def test_bound_18_gives_the_committed_stress_file(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "rays741.txt"
        cfg = closure_generate(mub_seed(), 18, strict=False)
        assert export_rays(cfg).encode() == path.read_bytes()

    def test_bound_24_closure(self):
        cfg = closure_generate(mub_seed(), 24, strict=False)
        assert (cfg.n_rays, len(cfg.edges), len(cfg.contexts)) == (1221, 3228, 832)
        assert hashlib.sha256(export_rays(cfg).encode()).hexdigest() == (
            "f4b42cd9f4979164a28159564eed423dfb0cde35beb29557f9478b6df64438cd")

    @pytest.mark.parametrize("bound", [0, -6, 6.0, True, "6", None])
    def test_bound_not_a_positive_int_refused(self, bound, monkeypatch):
        seed = mub_seed()
        monkeypatch.setattr(configuration, "flat_canonical", None)  # refused before any work
        with pytest.raises(ValueError, match=re.escape(f"not {bound!r}")):
            closure_generate(seed, bound)


@functools.lru_cache(maxsize=None)
def committed(n_rays: int):
    """The configuration of the committed ray file perfbench/data/rays<n>.txt."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "data" / f"rays{n_rays}.txt"
    return ingest_rays(path.read_text())


@functools.lru_cache(maxsize=None)
def rays741() -> tuple[VecC3, ...]:
    return tuple(VecC3.from_flat(r.flat) for r in committed(741).rays)


def scalar_classification(cfg):
    """(edges, purely imaginary pairs) by the scalar kernel, pair by pair."""
    flats = [r.flat for r in cfg.rays]
    zero, imaginary = set(), set()
    for i in range(cfg.n_rays):
        for j in range(i + 1, cfg.n_rays):
            (a, b), = flat_inner_row(flats[i], [flats[j]])
            if (a, b) == (0, 0):
                zero.add((i, j))
            elif 2 * a == b:
                imaginary.add((i, j))
    return zero, imaginary


big_coef = st.integers(min_value=-10**30, max_value=10**30)
big_vec = st.builds(
    VecC3.make,
    *[st.builds(EisensteinInt, big_coef, big_coef)] * 3,
).filter(lambda v: not v.is_zero())


class TestAssemblyScan:
    """The assembly's lane scan (2A - B, then a scalar check of its zero
    lanes) against a per-pair scalar classification."""

    def test_stress_configuration(self):
        cfg = configuration_from_vectors(list(rays741()), strict=False)
        assert (cfg.edges, cfg.imaginary_pairs) == scalar_classification(cfg)
        assert (len(cfg.edges), len(cfg.imaginary_pairs), len(cfg.contexts)) == (
            1974, 5124, 490)

    @given(st.sets(st.integers(0, 740), max_size=40), st.integers(0, 43))
    @settings(max_examples=60, deadline=None)
    # Rows of the zero search, each at k = 0 (lanes an array) and k = 20
    # (lanes wider than 8 bytes, a list).  Five rays whose 2A - B rows are
    # [0, 0, x, 0], [x, x, x], [x, x], [x]: zero lanes first, adjacent and
    # last in a row, rows with none, and a one-lane row; then an edge pair,
    # one row of one zero lane.
    @example({29, 78, 328, 482, 675}, 0)
    @example({29, 78, 328, 482, 675}, 20)
    @example({0, 1}, 0)
    @example({0, 1}, 20)
    def test_subsets_of_stress_rays_with_large_coefficients(self, ids, k):
        # conftest.LIFT: the images keep their edges and imaginary pairs, with
        # coefficients near 5^k
        vecs = lifted([rays741()[i] for i in sorted(ids)], k)
        cfg = configuration_from_vectors(vecs, strict=False)
        assert (cfg.edges, cfg.imaginary_pairs) == scalar_classification(cfg)

    @given(st.lists(big_vec, min_size=2, max_size=12, unique_by=canonicalize))
    @settings(max_examples=60, deadline=None)
    # Two-byte lanes.  Three rays whose 2A - B rows, as bytes, are
    # 02 00 00 00 and 00 00: the zero run at offset 1 straddles lanes 0 and
    # 1, and the real zero lane 1 starts where it ends.  Five rays with the
    # row [236, -256], ec 00 00 ff: a straddling run and no zero lane.
    @example([VecC3.from_flat(f) for f in ((-1, 0, -2, 1, 0, 0), (1, 0, 0, 0, 0, -1))])
    @example([VecC3.from_flat(f) for f in (
        (0, -16, 0, 0, 0, 3), (0, 2, 0, -2, 0, -2), (-2, 0, 1, 0, -2, -2))])
    def test_random_large_vectors_with_completions(self, vecs):
        # each completion conj(u x v) is orthogonal to u and v: edges occur
        rays, done = list(vecs), set(map(canonicalize, vecs))
        for u, v in zip(vecs, vecs[1:]):
            w = conj_cross(u, v)
            if canonicalize(w) not in done:
                done.add(canonicalize(w))
                rays.append(w)
        cfg = configuration_from_vectors(rays, strict=False)
        assert (cfg.edges, cfg.imaginary_pairs) == scalar_classification(cfg)
        assert cfg.edges


class TestContexts:
    def test_every_context_is_orthogonal_triple_spanning(self, full_config):
        from ksembed.exact import E_ZERO

        for ctx in full_config.contexts:
            i, j, k = ctx
            u, v, w = (VecC3.from_flat(full_config.rays[x].flat) for x in (i, j, k))
            assert hermitian_inner(u, v).is_zero()
            assert hermitian_inner(u, w).is_zero()
            assert hermitian_inner(v, w).is_zero()
            # determinant det(u, v, w) = (u x v) . w nonzero: the rays span C^3
            cr = cross(u, v)
            det = E_ZERO
            for a, b in zip(cr, w):
                det = det + a * b
            assert not det.is_zero()

    def test_every_edge_in_some_context(self, full_config):
        in_ctx = set()
        for ctx in full_config.contexts:
            i, j, k = ctx
            in_ctx.update({(i, j), (i, k), (j, k)})
        assert set(full_config.edges) <= in_ctx

    def test_single_triangle(self):
        cfg = configuration_from_vectors(mub_bases()[0])
        assert len(cfg.contexts) == 1

    def test_pendant_edge_rejected(self):
        with pytest.raises(NonTriangleClique, match=r"^1 edges lie in no triangle, e.g. \(0, 1\)$"):
            configuration_from_vectors(
                [VecC3.make(1, 0, 0), VecC3.make(0, 1, 1)]
            )

    def test_triangle_that_extends_rejected(self):
        # a synthetic K4: no four rays of C^3 are pairwise orthogonal
        edges = {(i, j) for i in range(4) for j in range(i + 1, 4)}
        adjacency = [set(range(4)) - {i} for i in range(4)]
        with pytest.raises(NonTriangleClique, match=r"triangle \(0, 1, 2\) extends by \[3\]"):
            build_contexts(edges, adjacency)

    def test_isolated_ray_rejected_when_strict(self):
        vecs = mub_bases()[0] + [VecC3.make(1, 1, 1)]
        with pytest.raises(NonTriangleClique, match=r"isolated rays .*: \[3\]"):
            configuration_from_vectors(vecs)
        assert len(configuration_from_vectors(vecs, strict=False).contexts) == 1


class TestRayFiles:
    def test_parse_simple_line(self):
        cfg = ingest_rays("1,0 1,0 1,0\n# trailing comment\n")
        assert cfg.n_rays == 1
        assert VecC3.from_flat(cfg.rays[0].flat) == VecC3.make(1, 1, 1)

    def test_mub_seed_round_trip(self):
        cfg = configuration_from_vectors(mub_seed())
        text = export_rays(cfg)
        assert len([ln for ln in text.splitlines() if not ln.startswith("#")]) == 12
        again = ingest_rays(text)
        assert [r.flat for r in again.rays] == [r.flat for r in cfg.rays]
        assert again.edges == cfg.edges
        assert again.contexts == cfg.contexts

    def test_full_configuration_round_trip(self, full_config):
        text = export_rays(full_config)
        again = ingest_rays(text)
        assert [r.flat for r in again.rays] == [r.flat for r in full_config.rays]
        assert again.edges == full_config.edges
        assert again.contexts == full_config.contexts
        assert export_rays(again) == text

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            ingest_rays("1,0 0,0 0,1\nbogus line\n")
        assert err.value.lineno == 2

    def test_wrong_arity(self):
        with pytest.raises(ParseError):
            ingest_rays("1,0 0,1\n")

    def test_coordinate_with_three_parts(self):
        with pytest.raises(ParseError, match="'1,0,0' is not of the form a,b"):
            ingest_rays("1,0,0 0,0 0,0\n")

    def test_non_integer_coefficient(self):
        with pytest.raises(ParseError):
            ingest_rays("1,x 0,0 0,1\n")

    @pytest.mark.parametrize("coordinate", ["1_0,0", "+1,0", "\uff11,0", "1,0_1", "1,+1",
                                            "1,-\uff11", "\u0661,0", "-,1", "--1,0"])
    def test_coefficient_is_an_optional_minus_and_ascii_digits(self, coordinate):
        # int() would read "1_0" as 10, and take "+1" and other scripts' digits
        with pytest.raises(ParseError, match=re.escape(
                f"line 2: non-integer coefficient in {coordinate!r}")) as err:
            ingest_rays(f"1,0 0,0 0,0\n{coordinate} 0,1 0,0\n")
        assert err.value.lineno == 2

    @pytest.mark.parametrize("coordinate, message", [
        ("x" * 100_000, "coordinate 'xxxxxxxxxxxxxxxxxxxx'... is not of the form a,b"),
        ("x" * 100_000 + ",0", "non-integer coefficient in 'xxxxxxxxxxxxxxxxxxxx'..."),
    ], ids=["not-a-pair", "non-integer"])
    def test_long_coordinate_is_echoed_cut(self, coordinate, message):
        with pytest.raises(ParseError) as err:
            ingest_rays(f"1,0 0,0 0,0\n{coordinate} 0,1 0,0\n")
        assert str(err.value) == f"line 2: {message}"
        assert len(str(err.value)) < 200

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="int() converts any length here")
    def test_coefficient_past_the_int_digit_limit(self):
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(ParseError, match=rf"^line 2: coefficient of {len(digits)} characters "
                           "exceeds the integer conversion limit$") as err:
            ingest_rays(f"1,0 0,0 0,0\n{digits},0 0,1 0,0\n")
        assert err.value.lineno == 2

    def test_zero_ray_rejected(self):
        with pytest.raises(ParseError):
            ingest_rays("0,0 0,0 0,0\n")

    def test_duplicate_after_canonicalization(self):
        with pytest.raises(DuplicateRay):
            # 2w * (1,0,0) is the same projective ray as (1,0,0)
            configuration_from_vectors(
                [VecC3.make(1, 0, 0), VecC3.make(2 * OMEGA, 0, 0),
                 VecC3.make(0, 1, 0)]
            )

    def test_duplicate_names_both_lines(self):
        # rays 0 and 4 by position; a comment and a blank line come first
        text = ("# five rays\n\n1,0 0,0 0,0\n0,0 1,0 0,0\n0,0 0,0 1,0\n"
                "0,0 1,0 1,0\n2,0 0,0 0,0\n")
        with pytest.raises(DuplicateRay, match=r"^line 7: same projective class as line 3$"):
            ingest_rays(text)

    def test_empty_file(self):
        with pytest.raises(ParseError):
            ingest_rays("# nothing here\n")

    def test_empty_input_names_no_line(self):
        # the fault is in the input as a whole, so no line number is given
        with pytest.raises(ParseError) as err:
            ingest_rays("")
        assert str(err.value) == "no rays in input"
        assert err.value.lineno is None

    def test_alphabet_warning_on_modified_165_ray_table(self, full_config):
        lines = [ln for ln in export_rays(full_config).splitlines()
                 if not ln.startswith("#")]
        # swap one published ray for a projectively new, out-of-alphabet one
        lines[-1] = "1,0 3,0 0,0"
        with pytest.warns(UserWarning, match="coefficient alphabet"):
            cfg = ingest_rays("\n".join(lines) + "\n")
        assert cfg.n_rays == 165

    def test_no_alphabet_warning_for_other_sizes(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = ingest_rays("1,0 3,0 0,0\n")
        assert cfg.n_rays == 1

    def test_published_table_ingests_without_the_alphabet_warning(self):
        # the committed table and the closure's own export both keep every
        # coordinate in the published alphabet
        published = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "rays165.txt"
        texts = (published.read_text(), export_rays(closure_generate(mub_seed())))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for text in texts:
                assert ingest_rays(text).n_rays == 165


@st.composite
def committed_id_lists(draw):
    """A committed ray file's size and an id list into it: unsorted, with
    repeats, possibly empty, and often holding whole contexts."""
    n = draw(st.sampled_from((165, 741)))
    ids = draw(st.lists(st.integers(0, n - 1), max_size=60))
    for ctx in draw(st.lists(st.sampled_from(committed(n).contexts), max_size=6)):
        ids += ctx
    return n, draw(st.permutations(ids))


class TestRayContract:
    """What readers of a configuration take from each ray: its id is its
    index, its flat is a canonical 6-tuple of ints, its sq_norm is the flat's
    squared norm."""

    @pytest.mark.parametrize("n_rays", [165, 741])
    def test_committed_rays_and_a_subconfiguration(self, n_rays):
        cfg = committed(n_rays)
        for c in (cfg, subconfiguration(cfg, list(range(1, n_rays, 3)))):
            for i, ray in enumerate(c.rays):
                assert ray.id == i
                assert type(ray.flat) is tuple and len(ray.flat) == 6
                assert all(type(x) is int for x in ray.flat)
                assert flat_canonical(ray.flat) == ray.flat
                assert ray.sq_norm == flat_sq_norm(ray.flat)


class TestSubconfiguration:
    @given(committed_id_lists())
    @settings(max_examples=100, deadline=None)
    @example((165, []))
    @example((741, [740, 3, 740, 0, 3]))
    def test_matches_the_parent_configuration(self, case):
        n, ids = case
        cfg = committed(n)
        sub = subconfiguration(cfg, ids)
        keep = sorted(set(ids))
        remap = {old: new for new, old in enumerate(keep)}  # increasing
        assert [(r.id, r.flat, r.sq_norm) for r in sub.rays] == [
            (new, cfg.rays[old].flat, cfg.rays[old].sq_norm) for new, old in enumerate(keep)]
        for induced, pairs in ((sub.edges, cfg.edges),
                               (sub.imaginary_pairs, cfg.imaginary_pairs)):
            assert induced == {(remap[i], remap[j]) for i, j in pairs
                               if i in remap and j in remap}
        assert sub.adjacency == [{j for e in sub.edges if i in e for j in e if j != i}
                                 for i in range(len(keep))]
        assert sub.contexts == [
            tuple(remap[r] for r in c) for c in cfg.contexts if all(r in remap for r in c)]

    def test_induced_structure(self, full_config):
        ctx = full_config.contexts[0]
        ids = sorted(set(ctx) | {100, 120, 140})
        sub = subconfiguration(full_config, ids)
        assert sub.n_rays == len(ids)
        # the chosen context survives with remapped ids
        assert any(len(c) == 3 for c in sub.contexts)
        for i, j in sub.edges:
            assert hermitian_inner(VecC3.from_flat(sub.rays[i].flat),
                                   VecC3.from_flat(sub.rays[j].flat)).is_zero()

    def test_induced_pairs_match_a_fresh_assembly(self, full_config):
        ids = list(range(0, 165, 4))
        sub = subconfiguration(full_config, ids)
        fresh = configuration_from_vectors([VecC3.from_flat(full_config.rays[i].flat) for i in ids],
                                           strict=False)
        assert sub.edges == fresh.edges
        assert sub.imaginary_pairs == fresh.imaginary_pairs
        assert sub.imaginary_pairs

    def test_ids_out_of_range_rejected(self, full_config):
        # -1 would otherwise index ray 164 and drop its edges
        with pytest.raises(ValueError, match=r"outside 0\.\.164: \[-1\]"):
            subconfiguration(full_config, [-1, 0])
        with pytest.raises(ValueError, match=r"outside 0\.\.164: \[-3, 165, 200\]"):
            subconfiguration(full_config, [0, 165, 200, -3, 165])
