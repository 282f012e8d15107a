"""Exact arithmetic over the Eisenstein integers and the real field Q(sqrt(3)).

The pipeline holds a ray as a flat int tuple (a1, b1, a2, b2, a3, b3), its
coordinate k being a_k + b_k*w in Z[w], w = exp(2*pi*i/3), and computes with
the pair kernel first below (flat_lane_rows packs it for the all-pairs scans).
The reference layer after it holds the object types (EisensteinInt, VecC3,
VecR6 and QuadReal, p + q*sqrt(3) with rational p, q) and their wrappers over
the kernel, for the MUB seed, the ray-file parse and the tests' oracles only.
Nothing in this module touches floating point.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd


# --- the pair kernel ---------------------------------------------------------
#
# Every scan over ray pairs (closure, assembly, verification) runs on flat
# int tuples (a1, b1, a2, b2, a3, b3), coordinate k being a_k + b_k*w, so
# that no dataclass is built per pair.  The functions of the reference layer
# after the kernel are thin wrappers over it: the arithmetic is written once.
# The two all-pairs scans read it through the lane kernel below, which builds
# no tuple per pair either.

Flat = tuple[int, int, int, int, int, int]


def flat_inner_row(u: Flat, vs) -> list[tuple[int, int]]:
    """The Hermitian inner products <u, v> = sum_k conj(u_k) * v_k for every
    v in ``vs``, each as (A, B) meaning A + B*w.

    Termwise, conj(a + b*w) * (c + d*w) = (ac - bc + bd) + (ad - bc)*w.
    """
    a1, b1, a2, b2, a3, b3 = u
    p1, p2, p3 = a1 - b1, a2 - b2, a3 - b3
    return [(p1 * c1 + b1 * d1 + p2 * c2 + b2 * d2 + p3 * c3 + b3 * d3,
             a1 * d1 - b1 * c1 + a2 * d2 - b2 * c2 + a3 * d3 - b3 * c3)
            for c1, d1, c2, d2, c3, d3 in vs]


# The lane kernel.  The all-pairs scans read one linear form x*A + y*B of
# every inner product <vs[i], vs[j]> = A + B*w, i < j: assembly reads
# 2A - B (twice the real part) and finds its zero lanes in the row's bytes,
# verification the key A*2^h + B, which gives back (A, B).
# They share the packing below and differ only in (x, y).  By
# flat_inner_row's terms the form is sum_k g_k * v[k], the weights g_k small
# integers taken from u = vs[i], so a whole row of it is one 6-term integer
# combination of packed columns, as in Kronecker substitution:
#
# - Lanes.  Column k of the ray list is the integer sum_j vs[j][k] << (L*j),
#   one L-bit lane per ray, packed once per scan; lane j of
#   sum_k g_k * column_k is then the form on the pair (u, vs[j]).  A column
#   is laid out in two's complement (by array.tobytes, or a signed to_bytes
#   per ray for lanes over 8 bytes) and read back less 2^L at every lane
#   whose top bit is set.
# - Width.  With M the largest |coefficient| in the list, every lane value
#   is at most (sum_k |g_k|) * M in magnitude.  L is a whole number of bytes
#   with one bit more than the largest such bound over the rows (and M), so
#   every lane value lies in [-2^(L-1), 2^(L-1)).
# - Exactness.  Adding 2^(L-1) to every lane makes each lane a digit in
#   [0, 2^L): the base-2^L digits of the biased row are its lanes, with no
#   borrow between them.  XOR of each lane's top bit then leaves each lane's
#   two's complement, which one to_bytes per row lays out little-endian,
#   lane j at byte offset j*L/8.  Nothing is rounded or truncated, for any
#   input.
#
# Lanes of 1, 2, 4 or 8 bytes are read as a stdlib array, wider ones with
# int.from_bytes.  flat_inner_row is the scalar kernel, and the reference
# the tests hold the lane kernel to.

_LANE_CODES = {array(code).itemsize: code for code in "bhilq"}  # bytes -> typecode


def flat_lane_rows(vs: list[Flat], x: int, y: int) -> Iterator[Sequence[int]]:
    """For i = 0..n-2, the values x*A + y*B of <vs[i], vs[j]> = A + B*w for
    j = i+1..n-1 in order: the upper triangle of the Gram matrix under one
    linear form, a row per packed multiply (see the lane layout above)."""
    if len(vs) < 2:
        return
    weights = [(x * (a1 - b1) - y * b1, x * b1 + y * a1,
                x * (a2 - b2) - y * b2, x * b2 + y * a2,
                x * (a3 - b3) - y * b3, x * b3 + y * a3)
               for a1, b1, a2, b2, a3, b3 in vs]
    columns = list(zip(*vs))
    m = max(max(max(col), -min(col)) for col in columns)
    bound = max(m, m * max(sum(map(abs, g)) for g in weights))
    width = -(-(bound.bit_length() + 1) // 8)
    if width <= 8:
        width = 1 << (width - 1).bit_length()
    top = int.from_bytes((bytes(width - 1) + b"\x80") * len(vs), "little")
    size = width * len(vs)
    code = _LANE_CODES.get(width)

    def column(col: tuple[int, ...]) -> int:
        if code is None:
            raw = b"".join(c.to_bytes(width, "little", signed=True) for c in col)
        else:
            lanes = array(code, col)
            if sys.byteorder == "big":
                lanes.byteswap()
            raw = lanes.tobytes()
        packed = int.from_bytes(raw, "little")
        return packed - ((packed & top) << 1)  # less 2^L at each negative lane

    c0, c1, c2, c3, c4, c5 = map(column, columns)
    for i, (g0, g1, g2, g3, g4, g5) in enumerate(weights[:-1], 1):
        s = g0 * c0 + g1 * c1 + g2 * c2 + g3 * c3 + g4 * c4 + g5 * c5
        buf = ((s + top) ^ top).to_bytes(size, "little")
        if code is None:
            yield [int.from_bytes(buf[o:o + width], "little", signed=True)
                   for o in range(i * width, size, width)]
        else:
            lanes = array(code)
            lanes.frombytes(memoryview(buf)[i * width:])
            if sys.byteorder == "big":
                lanes.byteswap()
            yield lanes


def flat_sq_norm(u: Flat) -> int:
    """Hermitian squared norm <u, u> (its w-coefficient is 0)."""
    return flat_inner_row(u, (u,))[0][0]


def flat_cross_row(u: Flat, vs) -> list[Flat]:
    """The bilinear cross products u x v = (u2 v3 - u3 v2, u3 v1 - u1 v3,
    u1 v2 - u2 v1) for every v in ``vs``.

    Each coordinate product is (a + b*w)(c + d*w) = (ac - bd) + (ad + bc - bd)*w:
    with r = a - b, its coefficients are ac - bd and r*d + b*c.
    """
    a1, b1, a2, b2, a3, b3 = u
    r1, r2, r3 = a1 - b1, a2 - b2, a3 - b3
    return [(a2 * c3 - b2 * d3 - a3 * c2 + b3 * d2,
             r2 * d3 + b2 * c3 - r3 * d2 - b3 * c2,
             a3 * c1 - b3 * d1 - a1 * c3 + b1 * d3,
             r3 * d1 + b3 * c1 - r1 * d3 - b1 * c3,
             a1 * c2 - b1 * d2 - a2 * c1 + b2 * d1,
             r1 * d2 + b1 * c2 - r2 * d1 - b2 * c1)
            for c1, d1, c2, d2, c3, d3 in vs]


def flat_cross(u: Flat, v: Flat) -> Flat:
    """Bilinear cross product u x v (flat_cross_row on one pair)."""
    return flat_cross_row(u, (v,))[0]


def flat_conj_cross(u: Flat, v: Flat) -> Flat:
    """conj(u x v), by conj(a + b*w) = (a - b) - b*w; zero iff u, v are parallel."""
    x1, y1, x2, y2, x3, y3 = flat_cross(u, v)
    return (x1 - y1, -y1, x2 - y2, -y2, x3 - y3, -y3)


def flat_canonical(v: Flat) -> Flat:
    """Projective canonical form of a nonzero vector.

    With z0 = p + q*w its first nonzero coordinate, every coordinate z is
    replaced by conj(z0) * z (the termwise product of flat_inner_row), which
    turns z0 into the positive integer norm(z0); the result is then divided
    by the gcd of its coefficients.
    """
    k = 0 if v[0] or v[1] else (2 if v[2] or v[3] else 4)
    p, q = v[k], v[k + 1]
    r = p - q
    w = (r * v[0] + q * v[1], p * v[1] - q * v[0],
         r * v[2] + q * v[3], p * v[3] - q * v[2],
         r * v[4] + q * v[5], p * v[5] - q * v[4])
    g = gcd(*w)  # w[k] = norm(z0) > 0
    return tuple(x // g for x in w)  # type: ignore[return-value]


# --- reference layer ---------------------------------------------------------


class ParallelInput(ValueError):
    """Raised when an operation needs two non-parallel vectors."""


@dataclass(frozen=True, slots=True)
class EisensteinInt:
    """An element a + b*w of the ring Z[w], w a primitive third root of unity.

    The representation is unique: two elements are equal iff their (a, b)
    pairs agree.  Multiplication reduces w^2 via w^2 = -1 - w.
    """

    a: int
    b: int

    def __add__(self, other: EisensteinInt) -> EisensteinInt:
        return EisensteinInt(self.a + other.a, self.b + other.b)

    def __sub__(self, other: EisensteinInt) -> EisensteinInt:
        return EisensteinInt(self.a - other.a, self.b - other.b)

    def __mul__(self, other: EisensteinInt | int) -> EisensteinInt:
        if isinstance(other, int):
            return EisensteinInt(self.a * other, self.b * other)
        a, b, c, d = self.a, self.b, other.a, other.b
        return EisensteinInt(a * c - b * d, a * d + b * c - b * d)

    __rmul__ = __mul__

    def __neg__(self) -> EisensteinInt:
        return EisensteinInt(-self.a, -self.b)

    def conjugate(self) -> EisensteinInt:
        """Complex conjugate: conj(a + b*w) = (a - b) - b*w, since conj(w) = w^2."""
        return EisensteinInt(self.a - self.b, -self.b)

    def norm(self) -> int:
        """Field norm z * conj(z) = a^2 - a*b + b^2; zero iff z = 0."""
        return self.a * self.a - self.a * self.b + self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def re_im(self) -> tuple[QuadReal, QuadReal]:
        """Exact real and imaginary parts: (a - b/2, (b/2)*sqrt(3))."""
        return (
            QuadReal(Fraction(2 * self.a - self.b, 2), Fraction(0)),
            QuadReal(Fraction(0), Fraction(self.b, 2)),
        )

    def is_purely_imaginary(self) -> bool:
        """True iff the real part a - b/2 vanishes (and z may still be 0)."""
        return 2 * self.a == self.b

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}ω"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a} {sign} {abs(self.b)}ω"

    def __repr__(self) -> str:
        return f"EisensteinInt({self.a}, {self.b})"


E_ZERO = EisensteinInt(0, 0)
E_ONE = EisensteinInt(1, 0)
OMEGA = EisensteinInt(0, 1)
OMEGA2 = EisensteinInt(-1, -1)

#: the six units of Z[w]: +-1, +-w, +-w^2
EISENSTEIN_UNITS = (
    E_ONE,
    -E_ONE,
    OMEGA,
    -OMEGA,
    OMEGA2,
    -OMEGA2,
)


@dataclass(frozen=True, slots=True)
class QuadReal:
    """An element p + q*sqrt(3) of Q(sqrt(3)) with exact rational p, q.

    sqrt(3) is irrational, so the representation is unique and
    x = 0 iff p = q = 0.
    """

    p: Fraction
    q: Fraction

    @classmethod
    def of(cls, p: int | Fraction, q: int | Fraction = 0) -> QuadReal:
        return cls(Fraction(p), Fraction(q))

    def __add__(self, other: QuadReal) -> QuadReal:
        return QuadReal(self.p + other.p, self.q + other.q)

    def __mul__(self, other: QuadReal) -> QuadReal:
        return QuadReal(
            self.p * other.p + 3 * self.q * other.q,
            self.p * other.q + self.q * other.p,
        )

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def __float__(self) -> float:
        return float(self.p) + float(self.q) * 3 ** 0.5


QR_ZERO = QuadReal(Fraction(0), Fraction(0))


@dataclass(frozen=True, slots=True)
class VecC3:
    """A vector in C^3 with Z[w] coordinates, stored unnormalized.

    Rays are projective objects; orthogonality and unbiasedness are scale
    invariant, so the integer representative plus its squared norm carry
    everything the exact predicates need.
    """

    coords: tuple[EisensteinInt, EisensteinInt, EisensteinInt]

    @classmethod
    def make(cls, z1, z2, z3) -> VecC3:
        def coerce(z) -> EisensteinInt:
            if isinstance(z, EisensteinInt):
                return z
            if isinstance(z, int):
                return EisensteinInt(z, 0)
            if isinstance(z, tuple):
                return EisensteinInt(*z)
            raise TypeError(f"cannot build Z[w] coordinate from {z!r}")

        return cls((coerce(z1), coerce(z2), coerce(z3)))

    @classmethod
    def from_flat(cls, f: Flat) -> VecC3:
        a1, b1, a2, b2, a3, b3 = f
        return cls((EisensteinInt(a1, b1), EisensteinInt(a2, b2), EisensteinInt(a3, b3)))

    def flat(self) -> Flat:
        """The six coefficients (a1, b1, a2, b2, a3, b3) of the pair kernel."""
        z1, z2, z3 = self.coords
        return (z1.a, z1.b, z2.a, z2.b, z3.a, z3.b)

    def __iter__(self):
        return iter(self.coords)

    def is_zero(self) -> bool:
        return all(z.is_zero() for z in self.coords)

    def sq_norm(self) -> int:
        """Hermitian squared norm, a non-negative rational integer."""
        return sum(z.norm() for z in self.coords)

    def scale(self, s: EisensteinInt | int) -> VecC3:
        return VecC3(tuple(z * s for z in self.coords))  # type: ignore[arg-type]

    def __repr__(self) -> str:
        return "VecC3(" + ", ".join(str(z) for z in self.coords) + ")"


@dataclass(frozen=True, slots=True)
class VecR6:
    """A vector in R^6 with Q(sqrt(3)) coordinates, ordered
    (Re z1, Re z2, Re z3, Im z1, Im z2, Im z3)."""

    coords: tuple[QuadReal, QuadReal, QuadReal, QuadReal, QuadReal, QuadReal]

    def __getitem__(self, i: int) -> QuadReal:
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)


def hermitian_inner(u: VecC3, v: VecC3) -> EisensteinInt:
    """Hermitian inner product sum_i conj(u_i) * v_i (conjugation on the first
    argument)."""
    return EisensteinInt(*flat_inner_row(u.flat(), (v.flat(),))[0])


def cross(u: VecC3, v: VecC3) -> VecC3:
    """Ordinary bilinear cross product u x v (no conjugation)."""
    return VecC3.from_flat(flat_cross(u.flat(), v.flat()))


def conj_cross(u: VecC3, v: VecC3) -> VecC3:
    """conj(u x v): the ray Hermitian-orthogonal to both u and v.

    <u, conj(u x v)> = conj(u . (u x v)) = 0, and likewise for v.

    Raises ParallelInput when u x v = 0.
    """
    w = flat_conj_cross(u.flat(), v.flat())
    if not any(w):
        raise ParallelInput(f"parallel vectors: {u!r}, {v!r}")
    return VecC3.from_flat(w)


def phi0(u: VecC3) -> VecR6:
    """Coordinate-wise realification (Re z1, Re z2, Re z3, Im z1, Im z2, Im z3).

    Norm preserving: the Euclidean squared norm of the image equals the
    Hermitian squared norm of u.
    """
    parts = [z.re_im() for z in u]
    return VecR6((parts[0][0], parts[1][0], parts[2][0],
                  parts[0][1], parts[1][1], parts[2][1]))


def dot6(x: VecR6, y: VecR6) -> QuadReal:
    """Exact Euclidean dot product on R^6.

    For images of phi0, dot6(phi0(u), phi0(v)) equals the real part of
    hermitian_inner(u, v): the motivating identity for phase adjustment.
    """
    s = QR_ZERO
    for xi, yi in zip(x, y):
        s = s + xi * yi
    return s


def re_part(z: EisensteinInt) -> QuadReal:
    return z.re_im()[0]


def permutation_equivalent(x: VecR6, y: VecR6, sigma: tuple[int, ...]) -> bool:
    """True iff y_i = x_{sigma(i)} for all i, i.e. applying sigma to x's
    coordinates yields y.  sigma is a 0-indexed bijection on {0,..,5}."""
    if sorted(sigma) != list(range(6)):
        raise ValueError(f"not a permutation of 6 indices: {sigma!r}")
    return all(y[i] == x[sigma[i]] for i in range(6))


def swap_permutations() -> list[tuple[int, ...]]:
    """The 48 coordinate permutations of R^6 that reshuffle the three complex
    slots and optionally swap each slot's real and imaginary part.

    Applied simultaneously to every vector they preserve all pairwise dot
    products.
    """
    from itertools import permutations, product

    sigmas = []
    for pi in permutations(range(3)):
        for swaps in product((0, 1), repeat=3):
            sigma = [0] * 6
            for j in range(3):
                if swaps[j]:
                    sigma[j] = pi[j] + 3
                    sigma[j + 3] = pi[j]
                else:
                    sigma[j] = pi[j]
                    sigma[j + 3] = pi[j] + 3
            sigmas.append(tuple(sigma))
    return sigmas
