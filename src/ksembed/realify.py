"""Phase-adjusted realification of a ray configuration into R^6.

The canonical coordinate-wise map preserves complex orthogonality for every
phase choice, but non-orthogonal pairs can collapse onto spurious real
orthogonality.  For a pair with inner product c != 0 the real dot product of
the images is Re(e^{i(theta_l - theta_k)} c), so each pair forbids at most
two phase differences.  This module provides the rational search
theta_k = n_k*pi/K, the exact verification that an assignment is faithful,
a cross-check of it that locates in fixed point the phase difference at
which each inner product's real dot vanishes, and the decimal export of the
images.

The exact zero test rests on an algebraic fact: Re(e^{i*dn*pi/K} c) = 0 iff
e^{2i*dn*pi/K} = -conj(c)/c.  The left side is a K-th root of unity; the
right side lies in Q(w), whose only roots of unity are sixth roots.  With
gcd(K, 6) = 1 the two sets meet only at 1, so the dot vanishes iff c is
purely imaginary and dn = 0 (mod K).  No floating point is needed to decide.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from math import gcd

from .configuration import Configuration, ascii_digits, echo
from .exact import EisensteinInt, Flat, flat_lane_rows


class ZeroInnerProduct(ValueError):
    """Forbidden phases are only defined for non-orthogonal pairs."""


class InvalidK(ValueError):
    """K must be a positive integer with gcd(K, 6) = 1."""


class SearchExhausted(RuntimeError):
    """No valid phase assignment exists for this K under this strategy."""


class ExportUndecided(RuntimeError):
    """An exported field's correctly rounded digits stayed undecided in the
    export's last pass, the one at its working-precision cap."""


class PrecisionDisagreement(RuntimeError):
    """The fixed-point cross-check contradicts the exact verdict on some
    inner product: the zero it locates for a purely imaginary one is off
    0 or K, or the zero of another stays within its error bound of an
    integer up to the cross-check's working-precision cap."""


STRATEGIES = ("distinct", "backtracking", "greedy-random")


@dataclass(frozen=True)
class PhaseAssignment:
    """Integers n_k defining per-ray phases theta_k = n_k*pi/K, n_k mod 2K.

    Raises InvalidK for a bad K (see check_k) and ValueError for a phase
    whose type is not int, bool included: the exact faithfulness test and
    the export both assume integer phases."""

    K: int
    n: tuple[int, ...]

    def __post_init__(self):
        check_k(self.K)
        n = tuple(self.n)
        for k, v in enumerate(n):
            if type(v) is not int:
                raise ValueError(f"n[{k}]={v!r}: phases must be integers")
        object.__setattr__(self, "n", tuple(v % (2 * self.K) for v in n))


@dataclass
class FaithfulnessReport:
    """Outcome of the all-pairs embedding check.

    ``spurious``: non-orthogonal pairs whose images are orthogonal.
    ``missing``: orthogonal pairs whose images are not orthogonal; empty for
    every phase assignment (orthogonality is preserved unconditionally).
    """

    spurious: list[tuple[int, int]] = field(default_factory=list)
    missing: list[tuple[int, int]] = field(default_factory=list)
    pairs_checked: int = 0

    @property
    def faithful(self) -> bool:
        return not self.spurious and not self.missing


def is_spurious_exact(c: EisensteinInt, dn: int, k: int) -> bool:
    """Exact zero test for Re(e^{i*dn*pi/K} * c): true iff c is purely
    imaginary (2a = b) and dn = 0 (mod K).  Valid because gcd(K, 6) = 1
    keeps nontrivial K-th roots of unity out of Q(w)."""
    check_k(k)
    if c.is_zero():
        raise ZeroInnerProduct("zero test is for non-orthogonal pairs")
    return c.is_purely_imaginary() and dn % k == 0


def default_k(n_rays: int) -> int:
    """The K used when none is given: 1009 up to 1009 rays, else the
    smallest K >= n_rays coprime to 6, so that "distinct" always succeeds."""
    k = max(n_rays, 1009)
    while gcd(k, 6) != 1:
        k += 1
    return k


def rational_phase_search(
    cfg: Configuration,
    k: int | None = None,
    strategy: str = "distinct",
    rng_seed: int = 0,
) -> PhaseAssignment:
    """Find integers n with no spurious pair under theta = n*pi/K, with K
    = default_k(cfg.n_rays) when ``k`` is None.

    The criterion constrains only pairs with purely imaginary inner product:
    those need n_l != n_k (mod K).  Strategies:

    - "distinct": n_k = k, valid whenever K exceeds the ray count;
    - "backtracking": ordered depth-first search over residues with
      forbidden-residue pruning (useful for probing small K);
    - "greedy-random": seeded random residue per ray among the allowed ones,
      in time and memory independent of K.

    Every output is verified before return.  Raises SearchExhausted when no
    assignment exists for this K (only possible for small K), InvalidK when
    gcd(K, 6) != 1.
    """
    if k is None:
        k = default_k(cfg.n_rays)
    check_k(k)
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    n = cfg.n_rays
    # for each ray, the earlier rays it forms a purely imaginary pair with
    iadj: list[list[int]] = [[] for _ in range(n)]
    for i, j in sorted(cfg.imaginary_pairs):
        iadj[j].append(i)

    if strategy == "distinct":
        ns = list(range(n))
    elif strategy == "backtracking":
        ns = _backtracking_search(iadj, n, k)
    else:
        rng = random.Random(rng_seed)
        ns = []
        for m in range(n):
            banned = sorted({ns[j] for j in iadj[m]})
            if len(banned) == k:
                raise SearchExhausted(
                    f"greedy-random: ray {m} has no free residue mod {k}"
                )
            # rng.choice(free residues) without listing them, by the same draw
            r = rng.randrange(k - len(banned))
            for b in banned:
                if b > r:
                    break
                r += 1
            ns.append(r)

    _verify_or_exhausted(cfg, iadj, ns, k)
    return PhaseAssignment(K=k, n=tuple(ns))


def _verify_or_exhausted(cfg, iadj, ns, k) -> None:
    for m in range(cfg.n_rays):
        for j in iadj[m]:
            if (ns[m] - ns[j]) % k == 0:
                raise SearchExhausted(
                    f"assignment leaves pair ({j}, {m}) spurious at K={k}"
                )


def _backtracking_search(iadj: list[list[int]], n: int, k: int) -> list[int]:
    """Depth-first search over residues, ray by ray, each ray trying the
    residues 0..K-1 in order; iterative, so its depth is not bounded by the
    interpreter's recursion limit."""
    ns: list[int] = []
    start = 0  # first residue to try for ray len(ns)
    while len(ns) < n:
        banned = {ns[j] for j in iadj[len(ns)]}
        r = next((r for r in range(start, k) if r not in banned), None)
        if r is not None:
            ns.append(r)
            start = 0
        elif ns:
            start = ns.pop() + 1
        else:
            raise SearchExhausted(f"backtracking exhausted all residues mod {k}")
    return ns


# the cross-check's first working precision, which decides every direction
# of both committed configurations at K = 1009, and the most that its
# doublings may reach, about the export's own cap of 6,650 bits
VERIFY_FIRST_BITS, VERIFY_MAX_BITS = 64, 8192


def verify_faithful(cfg: Configuration, pa: PhaseAssignment) -> FaithfulnessReport:
    """Check all unordered ray pairs for the faithfulness conditions.

    The pass reads only the rays, not ``cfg.edges`` or ``cfg.imaginary_pairs``:
    it is the independent check of the assembly scan.  Orthogonal pairs stay
    orthogonal for every phase choice (the real dot is Re(e^{i dtheta} * 0)),
    so ``missing`` can only remain empty; it is kept in the report as the
    structural assertion.  By the exact criterion (is_spurious_exact) a
    non-orthogonal pair with inner product c and phase difference dn is
    spurious iff c is purely imaginary and dn = 0 (mod K), so only rays with
    equal n mod K can form one: the pass groups the rays by n mod K and
    applies the criterion to the pairs within each group.

    The inner products come from the lane kernel (exact.flat_lane_rows),
    which packs the rays' coefficient columns once into big integers, one
    lane per ray, wide enough for every lane value, so every lane is exact.
    Each row is one packed combination whose lane j holds the key
    A*2^h + B of c = <ray i, ray j> = A + B*w, with |B| <= 6*M^2 < 2^(h-1)
    (M the largest |coefficient|), so the key determines (A, B).  A row's
    distinct c are its set of keys, and a key is decoded the first time it
    is seen; the assembly scan shares the packing but reads 2A - B instead.

    The exact criterion is cross-checked once per primitive direction
    (A, B)/gcd(A, B) of the distinct c, sign kept: arg c, and with it
    everything below, is the same for c and its positive multiples.  The
    dot Re(e^{i dn pi/K} c) = |c|*cos(dn*pi/K + arg c) vanishes exactly at
    dn = x (mod K), x = K*atan2(2 Re c, 2 Im c)/pi, so the exact criterion
    says that x is an integer iff c is purely imaginary (then x = 0 or K).
    The locator (_zero_near) works at ``bits`` bits, with 2 Im c rounded to
    B*isqrt(3*4^bits)/2^bits, which moves x by under 0.1*K*2^-bits; it
    returns the integer n0 nearest its value of x and the exact offset of
    that value from n0, and its value is within K*2^-bits of x.

    - c purely imaginary: the locator finds x exactly, so n0 must be 0
      (mod K) and the offset exactly 0; otherwise PrecisionDisagreement.
    - otherwise: |offset| > K*2^-bits settles the direction, for x is then
      off n0 and, as |offset| <= 1/2, strictly between n0 - 1 and n0 + 1,
      so no dn is a zero, as the exact criterion says.  The directions not
      so settled are located again at twice the bits; past VERIFY_MAX_BITS
      PrecisionDisagreement names c, the nearest dn and the bits reached.

    The first precision is VERIFY_FIRST_BITS, doubled while K*2^-bits >= 1/2
    (no offset could then settle) but not past VERIFY_MAX_BITS.  At 741 rays
    and K = 1009 the 681 distinct c fall in 446 directions, all decided at
    64 bits; at K = 10^51 + 1 the first precision is 256 bits.
    """
    if len(pa.n) != cfg.n_rays:
        raise ValueError(
            f"phase assignment covers {len(pa.n)} rays, configuration has {cfg.n_rays}"
        )
    k, ns = pa.K, pa.n
    k2 = 2 * k
    flats = [ray.flat for ray in cfg.rays]
    # B = sum_k (a_k d_k - b_k c_k) has |B| <= 6 M^2 < 2^(h-1), M the largest
    # |coefficient|, so the key A*2^h + B of c = A + B*w gives back (A, B)
    m = max((abs(x) for f in flats for x in f), default=0)
    h = (6 * m * m).bit_length() + 1

    def decode(key: int) -> tuple[int, int]:
        b = ((key + (1 << (h - 1))) & ((1 << h) - 1)) - (1 << (h - 1))
        return (key - b) >> h, b

    classes: dict[int, list[int]] = {}  # n mod K -> its rays, in index order
    for i, v in enumerate(ns):
        classes.setdefault(v % k, []).append(i)
    report = FaithfulnessReport()

    # an orthogonal pair (key 0) has real dot Re(e^{i dtheta} * 0) = 0
    seen = {0}
    imaginary: set[int] = set()  # keys of the nonzero purely imaginary c
    directions: set[tuple[int, int]] = set()  # the c/gcd, cross-checked below
    for i, row in enumerate(flat_lane_rows(flats, 1 << h, 1)):
        report.pairs_checked += len(row)
        if not seen.issuperset(row):  # most rows hold no new key
            for key in set(row) - seen:
                seen.add(key)
                a, b = decode(key)
                if 2 * a == b:
                    imaginary.add(key)
                g = gcd(a, b)
                directions.add((a // g, b // g))
        # is_spurious_exact: purely imaginary c and dn = 0 (mod K)
        mates = classes[ns[i] % k]
        for j in mates[bisect_right(mates, i):]:
            if row[j - i - 1] in imaginary:
                report.spurious.append((i, j))

    # each direction's zero, located again at twice the bits while not settled;
    # no offset (at most 1/2) can settle while K*2^-bits >= 1/2
    bits, undecided = VERIFY_FIRST_BITS, directions
    while k >> (bits - 1) and 2 * bits <= VERIFY_MAX_BITS:
        bits *= 2
    while undecided:
        pi, sqrt3 = _pi(bits), math.isqrt(3 << 2 * bits)
        rest = []
        for a, b in undecided:
            re = 2 * a - b  # 2 Re c; 2 Im c = sqrt3 * b
            n0, offset = _zero_near(re << bits, b * sqrt3, k, pi, bits)
            if re == 0:
                if n0 % k or offset:
                    raise PrecisionDisagreement(
                        f"c = {a} + {b}w is purely imaginary, so its dot is zero at dn = 0 "
                        f"and {k}, but the locator put the nearest dn at "
                        f"{sorted({n0 % k2, (n0 + k) % k2})}, "
                        f"{float(offset):.3g} from its zero")
            elif abs(offset.numerator) << bits <= k * offset.denominator:
                if 2 * bits > VERIFY_MAX_BITS:
                    raise PrecisionDisagreement(
                        f"c = {a} + {b}w, dn = {n0 % k2}: exact says nonzero, and the "
                        f"locator's zero is within its error bound K*2^-{bits} of dn at "
                        f"{bits} bits, the last before the {VERIFY_MAX_BITS}-bit cap")
                rest.append((a, b))
        undecided, bits = rest, 2 * bits
    return report


def scan_spurious_zero_phases(cfg: Configuration) -> list[tuple[int, int]]:
    """Pairs spurious under the canonical realification (all phases zero):
    exactly the non-orthogonal pairs with purely imaginary inner product."""
    return sorted(cfg.imaginary_pairs)


def check_k(k: int) -> None:
    """Raise InvalidK unless ``k`` is a positive int (not a bool) coprime
    to 6, the rule PhaseAssignment enforces."""
    if type(k) is not int or k <= 0 or gcd(k, 6) != 1:
        raise InvalidK(f"K={k!r}: need a positive integer coprime to 6")


# export digits: at least what phase_apply_export evaluates to, at most what
# exports 741 rays in about 1 s (3.8 s at 2,000: faster than linear growth)
MIN_PRECISION, MAX_PRECISION = 15, 1000
# digits beyond the export's precision in its first pass, and those of its
# cap: each later pass works at twice the bits, the last exactly at the cap
EXPORT_GUARD_DIGITS, EXPORT_MAX_GUARD_DIGITS = 15, 1000


def check_precision(precision: int) -> None:
    """Raise ValueError unless ``precision`` is an int (not a bool) in
    MIN_PRECISION .. MAX_PRECISION significant digits."""
    if type(precision) is not int or not MIN_PRECISION <= precision <= MAX_PRECISION:
        raise ValueError(f"precision must be >= {MIN_PRECISION} and <= {MAX_PRECISION} "
                         f"significant digits, got {precision!r}")


def phase_apply_export(
    cfg: Configuration,
    pa: PhaseAssignment,
    precision: int = 20,
) -> list[tuple[str, ...]]:
    """Evaluate each phase-adjusted realified ray as a 6-tuple of decimal
    strings of ``precision`` significant digits, each correctly rounded
    (half to even) and laid out as _decimal_fields lays it out.

    The rotation acts per complex coordinate z = a + b*w: twice the real
    and imaginary slots of e^{i theta} z are (2a - b)*cos - b*sqrt3*sin and
    (2a - b)*sin + b*sqrt3*cos.  A ray is evaluated in W-bit fixed point:
    cos and sin of theta are integers C and S in units of 2^-W from
    _FixedPoint.cos_sin, a product of roots of unity from a table built
    once per W; sqrt3 is R = isqrt(3 * 4^W), so 0 <= sqrt3*2^W - R < 1.
    Each slot is then one integer F in units of 2^-(2W+1), exact in the
    integers, within

        E = |2a - b| * e*2^W + |b| * (|S| + 2e*2^W)    (real slot)
        E = |2a - b| * e*2^W + |b| * (|C| + 2e*2^W)    (imaginary slot)

    of the true value, where e bounds |C - cos*2^W| and |S - sin*2^W|:
    e = 1, as _FixedPoint proves.

    A field is "0" exactly when it is zero.  By the roots-of-unity argument
    in the module docstring, a field of e^{i theta} z with z != 0 vanishes
    only at theta = 0 or pi, in the real slot when z is purely imaginary
    and in the imaginary slot when z is real.  At those two angles C = +-2^W
    and S = 0 exactly and e = 0, so the real slot is exact (E = 0) and the
    imaginary slot's E is |b|*2^W; F = E = 0 exactly for the zero fields,
    and at every other angle no field is zero.

    A nonzero field is rounded half to even by ``decimal`` (Ziv's
    strategy, _decimal_fields): rounding is monotone, so when both ends of
    [F - E, F + E] round to the same p digits, every value in it does, and
    an exact field (E = 0) is one correctly rounded division, so an exact
    tie goes to the even neighbour.  The export runs in passes, as
    verify_faithful's cross-check does: each builds one _FixedPoint and
    evaluates the rays still undecided, and a ray with two ends that round
    apart goes to the next pass, at twice the bits.  The first pass works at
    W + 8 bits, those of precision + EXPORT_GUARD_DIGITS digits, and the last
    exactly at the cap, those of precision + EXPORT_MAX_GUARD_DIGITS; a ray
    still undecided there raises ExportUndecided.  Both committed
    configurations export in the first pass.
    """
    check_precision(precision)
    if len(pa.n) != cfg.n_rays:
        raise ValueError("phase assignment does not cover the configuration")
    # the bits of d digits and one guard digit
    first, cap = (max(1, round((precision + d + 1) * 3.3219280948873626))
                  for d in (EXPORT_GUARD_DIGITS, EXPORT_MAX_GUARD_DIGITS))
    ctx = Context(prec=precision, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX, Emin=MIN_EMIN)
    rows: list = [None] * cfg.n_rays
    prec, undecided = first, range(cfg.n_rays)
    while undecided:
        fp, rest = _FixedPoint(pa.K, prec - 8), []
        for i in undecided:
            if (row := _export_row(cfg.rays[i].flat, pa.n[i], fp, ctx)) is None:
                if prec >= cap:
                    raise ExportUndecided(
                        f"ray {i}: a field of {precision} digits is undecided "
                        f"at the {cap}-bit cap")
                rest.append(i)
            rows[i] = row
        undecided, prec = rest, min(2 * prec, cap)
    return rows


def _export_row(f: Flat, nk: int, fp: _FixedPoint, ctx: Context) -> tuple[str, ...] | None:
    """The six fields of e^{i*pi*nk/K} times the ray with flat f, as
    phase_apply_export writes them, from one evaluation in fp's W-bit fixed
    point, rounded in ``ctx``; None when some field is undecided at this W."""
    w = fp.w
    c, s = fp.cos_sin(nk)
    # e = 1 unit of 2^-W, in units of 2^-2W; 0 at theta = 0 or pi, where C and S are exact
    ew = 1 << w if nk % fp.k else 0
    cw, sw, rc, rs = c << w, s << w, fp.sqrt3 * c, fp.sqrt3 * s
    err_re, err_im = abs(s) + 2 * ew, abs(c) + 2 * ew
    uv = [(2 * a - b, b) for a, b in zip(f[::2], f[1::2])]
    return _decimal_fields(
        [(u * cw - v * rs, abs(u) * ew + abs(v) * err_re) for u, v in uv]
        + [(u * sw + v * rc, abs(u) * ew + abs(v) * err_im) for u, v in uv],
        2 * w + 1, ctx)


def _zero_near(y: int, x: int, k: int, pi: int, bits: int) -> tuple[int, Fraction]:
    """The integer n0 nearest the value L' found for L = K*atan2(y, x)/pi,
    and the exact offset L' - n0, for integers y, x not both 0 and pi
    within 1 unit of 2^-bits, bits >= 16: with (y, x) = (2 Re c, 2 Im c),
    n0 is the dn nearest a zero of Re(e^{i dn pi/K} c).  By octant,
    atan2(y, x) = M*pi/4 + S*atan(s/r), 0 <= s <= r, S = +-1: K*M/4 is
    exact, and the rest, from _atan, is within K*(5/4)/(pi*2^bits - 1)
    < 0.4*K*2^-bits, so |L' - L| < 0.4*K*2^-bits and |L' - n0| <= 1/2.
    L' is exactly 0 or K when y = 0."""
    s, r, m, sign = (abs(y), abs(x), 0, 1) if abs(y) <= abs(x) else (abs(x), abs(y), 2, -1)
    if x < 0:
        m, sign = 4 - m, -sign
    if y < 0:
        m, sign = -m, -sign
    t = k * (m * pi + 4 * sign * _atan(s, r, bits))  # L' = t/(4 pi)
    n0 = (t + 2 * pi) // (4 * pi)
    return n0, Fraction(t - 4 * pi * n0, 4 * pi)


def _atan(s: int, r: int, p: int) -> int:
    """atan(s/r) within 1 unit of 2^-p, for integers 0 <= s <= r, r > 0,
    p >= 16.  At q = p + G bits, t = floor(s*2^q/r) is halved in angle h =
    isqrt(p/2) + 1 times, t <- t/(1 + isqrt(1 + t^2)), each of slope <= 1/2
    and adding under 5/4 units, so t ends within 5/2 units and below 2^-h;
    the series t - t^3/3 + ... adds under 2 units a term, for at most n =
    p//h + 2 terms, and a tail under 1.  2^G >= 2^h*(4n + 8) is twice 2^h
    times that."""
    h = math.isqrt(p // 2) + 1
    q = p + h + (4 * (p // h + 2) + 7).bit_length()
    one = 1 << q
    t = (s << q) // r
    for _ in range(h):
        t = (t << q) // (one + math.isqrt(one * one + t * t))
    t2, total, power, j = t * t >> q, t, t, 1
    while power:
        power, j = power * t2 >> q, j + 2
        total += -(power // j) if j & 2 else power // j
    return ((total << h) + (1 << (q - p - 1))) >> (q - p)


def _pi(p: int) -> int:
    """pi within 1 unit of 2^-p, p >= 10, by Machin's formula
    16 atan(1/5) - 4 atan(1/239) from _atan at p + 6 bits, within 20 units
    there."""
    return (16 * _atan(1, 5, p + 6) - 4 * _atan(1, 239, p + 6) + 32) >> 6


def _cis(r: int, k: int, pi: int, p: int) -> tuple[int, int]:
    """cos and sin of pi*r/k, each within 2p units of 2^-p, for k > 0,
    p >= 10 and pi within 1 unit.  With q nearest 2r/k, the angle is
    q*pi/2 + phi exactly, phi = pi*(2r - q*k)/(2k), |phi| <= pi/4, rounded
    to within 3/4 unit; e^{i phi} is its Taylor series, each term
    floor(t*|phi|/(j*2^p)) within 4/3 units (|phi| < 0.8) until one is 0,
    by j = p, which leaves a tail under 1/2; then times i^q."""
    q = (4 * r + k) // (2 * k)
    phi = (pi * (2 * r - q * k) + k) // (2 * k)
    a = abs(phi)
    parts = [0, 0, 0, 0]  # the sums of the terms with j = 0, 1, 2, 3 (mod 4)
    t, j = 1 << p, 0
    while t:
        parts[j & 3] += t
        j += 1
        t = (t * a >> p) // j
    c, s = parts[0] - parts[2], parts[1] - parts[3]
    if phi < 0:
        s = -s
    for _ in range(q % 4):  # times i
        c, s = -s, c
    return c, s


class _FixedPoint:
    """W-bit fixed point for the phases pi*n/K, built once per pass of
    phase_apply_export, at that pass's working precision:
    sqrt3 = floor(sqrt3*2^W), pi within 1 unit of 2^-P, and a table of
    e^{i pi 2^j/K}, j < L = bit_length(2K), from _cis at P = W + g bits,
    g = bit_length(L*(W + 64)) + 4, each part within e = 2P units.  cos_sin(n) multiplies the entries
    of the set bits of n mod 2K, each product rounded at P bits, to within
    2L*(sqrt2*e + 1) <= 6LP units; as 2^g >= 12LP, rounding to W bits gives
    |C - cos*2^W| <= 1 and |S - sin*2^W| <= 1, exact at n = 0 (mod K)."""

    def __init__(self, k: int, w: int):
        size = (2 * k).bit_length()
        self.g = (size * (w + 64)).bit_length() + 4
        self.k, self.w, self.p = k, w, w + self.g
        self.pi = _pi(self.p)
        self.sqrt3 = math.isqrt(3 << 2 * w)
        self.table = [_cis(pow(2, j, 2 * k), k, self.pi, self.p) for j in range(size)]

    def cos_sin(self, n: int) -> tuple[int, int]:
        n %= 2 * self.k
        if n % self.k == 0:
            return (1 << self.w) if n == 0 else -(1 << self.w), 0
        p, g = self.p, self.g
        (c, s), *rest = [root for j, root in enumerate(self.table) if n >> j & 1]
        for rc, rs in rest:  # rounded to nearest at P bits
            c, s = (c * rc - s * rs + (1 << p - 1)) >> p, (c * rs + s * rc + (1 << p - 1)) >> p
        return (c + (1 << g - 1)) >> g, (s + (1 << g - 1)) >> g


def _decimal_fields(values, shift: int, ctx: Context) -> tuple[str, ...] | None:
    """Each f / 2^shift, known to within err / 2^shift for (f, err) in
    ``values``, correctly rounded half to even to p = ctx.prec significant
    digits by ``decimal``; "0" when f = err = 0, and one exact division
    when err = 0.  Written positionally when -max(p//3, 5) < exponent < p,
    else as mantissa "e" exponent.  Rounding is monotone, so a field is decided when both ends of
    [f - err, f + err] round to the same decimal; the ends are first
    rounded outward to units of 2^cut, cut = shift // 2, which only widens
    the interval and halves the operands.  None when some field is not
    decided."""
    precision = ctx.prec
    cut = shift // 2
    unit = Decimal(1 << (shift - cut))
    min_fixed = min(-(precision // 3), -5)
    out = []
    for f, err in values:
        if err:
            d = ctx.divide(Decimal((f - err) >> cut), unit)
            if d != ctx.divide(Decimal(-(-(f + err) >> cut)), unit):
                return None
        elif f:
            d = ctx.divide(Decimal(f), Decimal(1 << shift))
        else:
            out.append("0")
            continue
        if min_fixed < d.adjusted() < precision:
            text = f"{d:f}"
            out.append(text.rstrip("0").rstrip(".") if "." in text else text)
        else:
            mantissa, exponent = f"{d:.{precision - 1}e}".split("e")
            mantissa = mantissa.rstrip("0")
            out.append(f"{mantissa}{'0' if mantissa.endswith('.') else ''}e{exponent}")
    return tuple(out)


# --- file formats ----------------------------------------------------------


def save_phases(pa: PhaseAssignment) -> str:
    """Phase file: header "K <value>", then one "ray_id n_k" per line."""
    lines = [f"K {pa.K}"]
    lines += [f"{i} {nk}" for i, nk in enumerate(pa.n)]
    return "\n".join(lines) + "\n"


def load_phases(text: str) -> PhaseAssignment:
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    header = lines[0].split() if lines else []
    if len(header) != 2 or header[0] != "K" or not ascii_digits(header[1]):
        raise ValueError("phase file must start with a 'K <value>' header, got "
                         f"{echo(lines[0] if lines else '')}")
    try:
        k = int(header[1])
    except ValueError:  # more digits than int() converts
        raise ValueError(f"phase file header: K of {len(header[1])} digits exceeds the "
                         "integer conversion limit") from None
    entries: dict[int, int] = {}
    for ln in lines[1:]:
        fields = ln.split()
        # "<ray id> <n_k>": digits, and an optional "-" then digits
        if (len(fields) != 2 or not ascii_digits(fields[0])
                or not ascii_digits(fields[1].removeprefix("-"))):
            raise ValueError(f"bad phase line: {echo(ln)}")
        try:
            ray_id, nk = int(fields[0]), int(fields[1])
        except ValueError:  # more digits than int() converts
            raise ValueError(f"bad phase line {echo(ln)}: a field of "
                             f"{max(map(len, fields))} characters exceeds the integer "
                             "conversion limit") from None
        if ray_id in entries:
            raise ValueError(f"ray id {ray_id} appears twice in the phase file")
        entries[ray_id] = nk
    if sorted(entries) != list(range(len(entries))):
        raise ValueError("phase file must cover ray ids 0..N-1")
    return PhaseAssignment(K=k, n=tuple(entries[i] for i in range(len(entries))))


def save_vectors(rows: list[tuple[str, ...]], precision: int) -> str:
    """Vector export: "# precision=<p>" header, six decimal fields per line."""
    lines = [f"# precision={precision}"]
    lines += [" ".join(row) for row in rows]
    return "\n".join(lines) + "\n"
