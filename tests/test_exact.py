"""Exact arithmetic: ring laws, the realification identity, cross products."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ksembed.exact import (
    E_ZERO,
    EISENSTEIN_UNITS,
    OMEGA,
    OMEGA2,
    EisensteinInt,
    ParallelInput,
    QuadReal,
    VecC3,
    conj_cross,
    cross,
    dot6,
    flat_canonical,
    flat_conj_cross,
    flat_cross,
    flat_inner_row,
    flat_lane_rows,
    flat_sq_norm,
    hermitian_inner,
    permutation_equivalent,
    phi0,
    re_part,
    swap_permutations,
)

small_int = st.integers(min_value=-6, max_value=6)
eis = st.builds(EisensteinInt, small_int, small_int)


def vec(z1, z2, z3):
    return VecC3.make(z1, z2, z3)


nonzero_vec = st.builds(
    VecC3.make, eis, eis, eis
).filter(lambda v: not v.is_zero())


class TestEisensteinRing:
    def test_omega_squared(self):
        assert OMEGA * OMEGA == EisensteinInt(-1, -1)

    def test_conjugate_of_omega_is_omega_squared(self):
        assert OMEGA.conjugate() == EisensteinInt(-1, -1) == OMEGA2

    def test_addition(self):
        assert EisensteinInt(1, 1) + EisensteinInt(1, -1) == EisensteinInt(2, 0)

    def test_units_all_norm_one(self):
        assert [u.norm() for u in EISENSTEIN_UNITS] == [1] * 6
        assert len(set(EISENSTEIN_UNITS)) == 6

    @given(eis, eis)
    def test_norm_multiplicative(self, z, w):
        assert (z * w).norm() == z.norm() * w.norm()

    @given(eis)
    def test_norm_nonnegative_definite(self, z):
        assert z.norm() >= 0
        assert (z.norm() == 0) == z.is_zero()

    @given(eis)
    def test_conjugate_involution(self, z):
        assert z.conjugate().conjugate() == z

    @given(eis, eis)
    def test_conjugate_multiplicative(self, z, w):
        assert (z * w).conjugate() == z.conjugate() * w.conjugate()

    @given(eis)
    def test_norm_is_z_times_conj(self, z):
        assert z * z.conjugate() == EisensteinInt(z.norm(), 0)

    @pytest.mark.parametrize("z, text", [(EisensteinInt(0, 3), "3ω"),
                                         (EisensteinInt(2, -1), "2 - 1ω")])
    def test_str_and_repr(self, z, text):
        assert str(z) == text
        assert repr(z) == f"EisensteinInt({z.a}, {z.b})"

    def test_vector_coordinate_must_be_a_ring_element(self):
        with pytest.raises(TypeError, match="from 1.5"):
            VecC3.make(1.5, 0, 0)


class TestHermitianInner:
    def test_self_norm(self):
        u = vec(1, 1, 1)
        assert hermitian_inner(u, u) == EisensteinInt(3, 0)

    def test_fourier_orthogonality(self):
        assert hermitian_inner(vec(1, 1, 1), vec(1, OMEGA, OMEGA2)).is_zero()

    def test_purely_imaginary_pair(self):
        c = hermitian_inner(vec(1, 1, 0), vec(1, 2 * OMEGA, 0))
        assert c == EisensteinInt(1, 2)
        assert re_part(c).is_zero()
        assert c.is_purely_imaginary()

    @given(nonzero_vec, nonzero_vec)
    def test_conjugate_symmetry(self, u, v):
        assert hermitian_inner(u, v) == hermitian_inner(v, u).conjugate()


class TestConjCross:
    def test_standard_basis(self):
        assert conj_cross(vec(1, 0, 0), vec(0, 1, 0)) == vec(0, 0, 1)

    def test_fourier_pair_parallel_to_expected(self):
        w = conj_cross(vec(1, 1, 1), vec(1, OMEGA, OMEGA2))
        assert hermitian_inner(vec(1, 1, 1), w).is_zero()
        assert hermitian_inner(vec(1, OMEGA, OMEGA2), w).is_zero()
        # parallel to (1, w^2, w): their ordinary cross product vanishes
        assert cross(w, vec(1, OMEGA2, OMEGA)).is_zero()

    def test_direct_expansion(self):
        w = conj_cross(vec(1, 0, 0), vec(0, 1, OMEGA))
        assert w == vec(0, -OMEGA2, 1)
        assert hermitian_inner(vec(0, 1, OMEGA), w).is_zero()

    def test_parallel_input_raises(self):
        with pytest.raises(ParallelInput):
            conj_cross(vec(1, 0, 0), vec(2, 0, 0))

    @given(nonzero_vec, nonzero_vec)
    def test_orthogonal_to_both(self, u, v):
        if cross(u, v).is_zero():
            return
        w = conj_cross(u, v)
        assert hermitian_inner(u, w).is_zero()
        assert hermitian_inner(v, w).is_zero()


class TestPhi0AndDot6:
    def test_real_vector_packs_in_order(self):
        image = phi0(vec(1, 1, 1))
        assert [float(x) for x in image] == [1, 1, 1, 0, 0, 0]

    def test_omega_coordinate(self):
        image = phi0(vec(OMEGA, 0, 0))
        assert image[0] == QuadReal.of(Fraction(-1, 2))
        assert image[3] == QuadReal.of(0, Fraction(1, 2))
        assert all(image[i].is_zero() for i in (1, 2, 4, 5))

    def test_fourier_vector(self):
        image = phi0(vec(1, OMEGA, OMEGA2))
        half = Fraction(1, 2)
        assert image.coords == (
            QuadReal.of(1), QuadReal.of(-half), QuadReal.of(-half),
            QuadReal.of(0), QuadReal.of(0, half), QuadReal.of(0, -half),
        )

    def test_orthogonal_preimages_stay_orthogonal(self):
        assert dot6(phi0(vec(1, 1, 1)), phi0(vec(1, OMEGA, OMEGA2))).is_zero()

    def test_spurious_pair(self):
        # preimages are NOT orthogonal (inner product i*sqrt(3)), yet the
        # canonical realification collapses them: the case motivating phases
        u, v = vec(1, 1, 0), vec(1, 2 * OMEGA, 0)
        assert not hermitian_inner(u, v).is_zero()
        assert dot6(phi0(u), phi0(v)).is_zero()

    def test_norm_three(self):
        u = vec(1, 1, 1)
        assert dot6(phi0(u), phi0(u)) == QuadReal.of(3)

    @given(nonzero_vec, nonzero_vec)
    def test_real_dot_identity(self, u, v):
        assert dot6(phi0(u), phi0(v)) == re_part(hermitian_inner(u, v))

    @given(nonzero_vec)
    def test_norm_preservation(self, u):
        assert dot6(phi0(u), phi0(u)) == QuadReal.of(u.sq_norm())


class TestPermutationEquivalence:
    def test_published_example(self):
        # (1,1,1,0,0,0) -> (1,0,1,0,1,0) under the cycle (2 4 5 3),
        # i.e. y = (x1, x4, x2, x5, x3, x6); zero-indexed sigma below
        x = phi0(vec(1, 1, 1))
        sigma = (0, 3, 1, 4, 2, 5)
        target = tuple(x[sigma[i]] for i in range(6))
        assert [float(t) for t in target] == [1, 0, 1, 0, 1, 0]
        from ksembed.exact import VecR6
        assert permutation_equivalent(x, VecR6(target), sigma)

    def test_identity(self):
        x = phi0(vec(1, OMEGA, 2))
        assert permutation_equivalent(x, x, (0, 1, 2, 3, 4, 5))

    def test_swap_that_moves_a_one_onto_a_zero(self):
        x = phi0(vec(1, 1, 1))
        sigma = (3, 1, 2, 0, 4, 5)  # swap positions 0 and 3
        assert not permutation_equivalent(x, x, sigma)

    def test_rejects_non_permutation(self):
        x = phi0(vec(1, 1, 1))
        with pytest.raises(ValueError):
            permutation_equivalent(x, x, (0, 0, 1, 2, 3, 4))

    @given(nonzero_vec, nonzero_vec)
    @settings(max_examples=25)
    def test_48_simultaneous_permutations_preserve_dots(self, u, v):
        from ksembed.exact import VecR6
        x, y = phi0(u), phi0(v)
        sigmas = swap_permutations()
        assert len(sigmas) == 48
        expected = dot6(x, y)
        for sigma in sigmas:
            xs = VecR6(tuple(x[sigma[i]] for i in range(6)))
            ys = VecR6(tuple(y[sigma[i]] for i in range(6)))
            assert dot6(xs, ys) == expected


# --- the flat-int pair kernel, against EisensteinInt arithmetic ------------

# zero coefficients are drawn often, so leading zero coordinates, zero
# vectors and parallel pairs all occur
big_coef = st.one_of(st.just(0), st.integers(min_value=-10**30, max_value=10**30))
big_flat = st.tuples(*[big_coef] * 6)
big_eis = st.builds(EisensteinInt, big_coef, big_coef)


def coords(f):
    return [EisensteinInt(f[0], f[1]), EisensteinInt(f[2], f[3]), EisensteinInt(f[4], f[5])]


def flatten(zs):
    return tuple(c for z in zs for c in (z.a, z.b))


def inner_reference(u, v):
    s = E_ZERO
    for x, y in zip(coords(u), coords(v)):
        s = s + x.conjugate() * y
    return s


def cross_reference(u, v):
    (u1, u2, u3), (v1, v2, v3) = coords(u), coords(v)
    return [u2 * v3 - u3 * v2, u3 * v1 - u1 * v3, u1 * v2 - u2 * v1]


def canonical_reference(v):
    zs = coords(v)
    z0 = next(z for z in zs if not z.is_zero())
    w = [z * z0.conjugate() for z in zs]
    g = gcd(z0.norm(), *(abs(c) for z in w for c in (z.a, z.b)))
    return flatten(EisensteinInt(z.a // g, z.b // g) for z in w)


class TestPairKernel:
    @given(big_flat, st.lists(big_flat, max_size=4))
    def test_inner_row(self, u, vs):
        assert flat_inner_row(u, vs) == [
            (c.a, c.b) for c in (inner_reference(u, v) for v in vs)
        ]

    @given(big_flat)
    def test_sq_norm(self, u):
        assert flat_sq_norm(u) == sum(z.norm() for z in coords(u))

    @given(big_flat, big_flat)
    def test_cross(self, u, v):
        ref = cross_reference(u, v)
        assert flat_cross(u, v) == flatten(ref)
        assert flat_conj_cross(u, v) == flatten(z.conjugate() for z in ref)

    @given(big_flat.filter(any), big_eis.filter(lambda z: not z.is_zero()))
    def test_canonical(self, v, s):
        # a common factor s makes the final gcd division nontrivial
        scaled = flatten(z * s for z in coords(v))
        assert flat_canonical(v) == canonical_reference(v)
        assert flat_canonical(scaled) == canonical_reference(scaled)
        assert flat_canonical(scaled) == flat_canonical(v)

    @given(big_flat, big_flat)
    def test_wrappers_agree(self, u, v):
        x, y = VecC3.from_flat(u), VecC3.from_flat(v)
        assert x.flat() == u
        assert hermitian_inner(x, y) == inner_reference(u, v)
        assert cross(x, y) == VecC3(tuple(cross_reference(u, v)))


# the linear forms x*A + y*B the scans read: 2A - B at assembly, the key
# A*2^h + B in verification (h past 64 makes the lanes wide), and small ones
lane_form = st.one_of(
    st.just((2, -1)),
    st.integers(1, 220).map(lambda h: (1 << h, 1)),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
)


@st.composite
def lane_lists(draw):
    """0-40 vectors with coefficients up to one drawn magnitude, so lanes of
    1, 2, 4 and 8 bytes occur as well as wider ones; zeros are frequent."""
    top = draw(st.sampled_from((1, 2, 100, 10**4, 10**8, 10**30)))
    coef = st.one_of(st.just(0), st.integers(-top, top))
    return draw(st.lists(st.tuples(*[coef] * 6), max_size=40))


def negative_ends(m):
    """Four vectors whose coefficient columns hold negative lanes first and
    last (lanes 0 and 3); m sets the lane width."""
    return [(-m, -1, 0, 0, 0, 0), (m, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0), (-m, 0, 0, 0, 0, -1)]


class TestLaneKernel:
    """flat_lane_rows against the scalar flat_inner_row, lane by lane."""

    @given(lane_lists(), lane_form)
    @settings(max_examples=300)
    # negative column lanes, each less 2^L once packed, in lanes of 1, 2, 4
    # and 8 bytes, the largest |A| near the top of each width
    @example(negative_ends(10), (1, 0))
    @example(negative_ends(180), (1, 0))
    @example(negative_ends(46000), (1, 0))
    @example(negative_ends(3037000498), (1, 0))
    # 2-byte lanes 5, 256, 0 in row 0: zero bytes straddle lanes 1 and 2
    @example([(1, 0, 0, 0, 0, 0), (5, 0, 0, 0, 0, 0), (256, 0, 0, 0, 0, 0),
              (0, 0, 0, 0, 0, 0)], (1, 0))
    def test_every_lane_matches_scalar_kernel(self, vs, form):
        x, y = form
        rows = list(flat_lane_rows(vs, x, y))
        assert len(rows) == max(len(vs) - 1, 0)
        for i, row in enumerate(rows):
            ref = [x * a + y * b for a, b in flat_inner_row(vs[i], vs[i + 1:])]
            assert list(row) == ref
