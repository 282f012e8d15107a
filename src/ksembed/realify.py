"""Phase-adjusted realification of a ray configuration into R^6.

The canonical coordinate-wise map preserves complex orthogonality for every
phase choice, but non-orthogonal pairs can collapse onto spurious real
orthogonality.  For a pair with inner product c != 0 the real dot product of
the images is Re(e^{i(theta_l - theta_k)} c), so each pair forbids at most
two phase differences.  This module provides the rational search
theta_k = n_k*pi/K and exact plus high-precision verification that an
assignment is faithful.

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

from mpmath import libmp

from .configuration import Configuration, ascii_digits
from .exact import EisensteinInt, flat_lane_rows


class ZeroInnerProduct(ValueError):
    """Forbidden phases are only defined for non-orthogonal pairs."""


class InvalidK(ValueError):
    """K must be a positive integer with gcd(K, 6) = 1."""


class SearchExhausted(RuntimeError):
    """No valid phase assignment exists for this K under this strategy."""


class ExportUndecided(RuntimeError):
    """An exported field's correctly rounded digits stayed undecided up to
    the export's working-precision cap."""


class PrecisionDisagreement(RuntimeError):
    """Exact and high-precision floating verdicts differ for some pair, or
    the precision is too low for the cross-check to separate them at this K."""


STRATEGIES = ("distinct", "backtracking", "greedy-random")


@dataclass(frozen=True)
class PhaseAssignment:
    """Integers n_k defining per-ray phases theta_k = n_k*pi/K, n_k mod 2K."""

    K: int
    n: tuple[int, ...]

    def __post_init__(self):
        check_k(self.K)
        object.__setattr__(self, "n", tuple(v % (2 * self.K) for v in self.n))


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


def verify_faithful(
    cfg: Configuration,
    pa: PhaseAssignment,
    float_dps: int = 60,
) -> FaithfulnessReport:
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

    The exact criterion is cross-checked in fixed point once per distinct
    inner product c, for every phase difference at once:

    - mpmath.libmp evaluates, on raw values at dps_to_prec(float_dps) bits
      rounded to nearest, Re c/|c| and Im c/|c| for each distinct c, and
      cos and sin of dn*pi/K together, one mpf_cos_sin call per distinct
      candidate dn mod 2K (below); mpmath's global precision is neither
      read nor changed;
    - each value is rounded to an integer in units of 2^-bits, with
      bits = ceil(float_dps * log2(10)) + 8;
    - the normalized dot Re(e^{i dn pi/K} c)/|c| is then the integer
      (Re c/|c|)*cos - (Im c/|c|)*sin in units of 2^-2bits, and reads zero
      when its magnitude is below the fixed cutoff 10^-50.

    Every factor has |x| <= 1, so the fixed-point rounding moves the dot by
    less than 2^(2-bits), and mpmath's own rounding at ``float_dps`` digits
    by less than 10^(1-float_dps); at the default 60 digits (bits = 208)
    both are below 10^-59, far under the cutoff.

    The normalized dot is cos(dn*pi/K + arg c), which vanishes exactly at
    dn = x (mod K), x = K*atan2(Re c, Im c)/pi.  With x evaluated at
    ``float_dps`` digits, the candidates floor(x), floor(x)+1, floor(x)+K
    and floor(x)+K+1 (mod 2K) hold the integers nearest both zeros as long
    as x is off by less than 1/2; every other dn lies more than 1/2 from a
    zero, so its dot exceeds sin(pi/(2K)) in magnitude.  A guard raises
    PrecisionDisagreement before the scan unless sin(pi/(2K)) exceeds the
    cutoff plus both rounding bounds (it holds for K = 2^31 - 1 at 15
    digits); then every other dn reads nonzero, as the exact criterion says
    (a purely imaginary c has x = 0 or K, so dn = 0 and K are candidates),
    and x is off by far less than 1/2.  So the dot is evaluated and compared
    with the exact verdict at the candidates only: at 741 rays, 681 distinct
    c and at most 2,724 dots cover the 274,170 pairs.  The float verdict
    must agree with the exact one on every pair: PrecisionDisagreement is
    raised at the first pair, in scan order, whose (c, dn) is a candidate
    where the two differ.
    """
    if len(pa.n) != cfg.n_rays:
        raise ValueError(
            f"phase assignment covers {len(pa.n)} rays, configuration has {cfg.n_rays}"
        )
    k, ns = pa.K, pa.n
    k2 = 2 * k
    flats = [ray.vec.flat() for ray in cfg.rays]
    # B = sum_k (a_k d_k - b_k c_k) has |B| <= 6 M^2 < 2^(h-1), M the largest
    # |coefficient|, so the key A*2^h + B of c = A + B*w gives back (A, B)
    m = max((abs(x) for f in flats for x in f), default=0)
    h = (6 * m * m).bit_length() + 1

    def decode(key: int) -> tuple[int, int]:
        b = ((key + (1 << (h - 1))) & ((1 << h) - 1)) - (1 << (h - 1))
        return (key - b) >> h, b

    bits = math.ceil(float_dps * math.log2(10)) + 8
    # for an integer dot, |dot| < ceil(t) iff |dot| < t: the cutoff is exact
    threshold = math.ceil(Fraction(1, 10**50) * (1 << (2 * bits)))
    classes: dict[int, list[int]] = {}  # n mod K -> its rays, in index order
    for i, v in enumerate(ns):
        classes.setdefault(v % k, []).append(i)
    report = FaithfulnessReport()
    prec, rnd = libmp.dps_to_prec(float_dps), libmp.round_nearest
    separation = _cos_sin(1, k2, prec)[1]  # sin(pi/2K)
    ten = libmp.from_int(10)
    bound = libmp.mpf_add(libmp.mpf_pow_int(ten, -50, prec, rnd),
                          libmp.mpf_shift(libmp.fone, 2 - bits), prec, rnd)
    bound = libmp.mpf_add(bound, libmp.mpf_pow_int(ten, 1 - float_dps, prec, rnd), prec, rnd)
    if libmp.mpf_le(separation, bound):
        raise PrecisionDisagreement(
            f"K={k}: at {float_dps} digits, sin(pi/2K) = "
            f"{libmp.to_str(separation, 3)} does not exceed the 1e-50 cutoff "
            f"plus the rounding bound, {libmp.to_str(bound, 3)} in all"
        )
    sqrt3 = libmp.mpf_sqrt(libmp.from_int(3), prec, rnd)
    pi = libmp.mpf_pi(prec, rnd)

    trig: dict[int, tuple[int, int]] = {}   # dn mod 2K -> (cos, sin)

    def disagreements(c: tuple[int, int]) -> dict[int, int]:
        """The candidate dn where the fixed-point verdict on c differs
        from the exact one, each with its dot."""
        a, b = c
        re = 2 * a - b  # 2 Re c; 2 Im c = sqrt3 * b
        im = libmp.mpf_mul_int(sqrt3, b, prec, rnd)
        twice_abs = libmp.mpf_shift(libmp.mpf_sqrt(libmp.from_int(a * a - a * b + b * b),
                                                   prec, rnd), 1)
        u0 = _fixed(libmp.mpf_div(libmp.from_int(re), twice_abs, prec, rnd), bits)
        u1 = _fixed(libmp.mpf_div(im, twice_abs, prec, rnd), bits)
        x = libmp.mpf_mul_int(libmp.mpf_atan2(libmp.from_int(re), im, prec, rnd), k, prec, rnd)
        f = libmp.to_int(libmp.mpf_div(x, pi, prec, rnd), libmp.round_floor)
        candidates = {(f + s) % k2 for s in (0, 1, k, k + 1)}
        imaginary = re == 0
        assert not imaginary or {0, k} <= candidates
        differ = {}
        for dn in candidates:
            cs = trig.get(dn)
            if cs is None:
                cs = trig[dn] = tuple(_fixed(x, bits) for x in _cos_sin(dn, k, prec))
            dot = u0 * cs[0] - u1 * cs[1]
            if (-threshold < dot < threshold) != (imaginary and dn % k == 0):
                differ[dn] = dot
        return differ

    # an orthogonal pair (key 0) has real dot Re(e^{i dtheta} * 0) = 0
    seen = {0}
    imaginary: set[int] = set()  # keys of the nonzero purely imaginary c
    wrong: dict[int, dict[int, int]] = {}  # key of c -> {dn: dot}
    for i, row in enumerate(flat_lane_rows(flats, 1 << h, 1)):
        ni = ns[i]
        report.pairs_checked += len(row)
        if not seen.issuperset(row):  # most rows hold no new key
            for key in set(row) - seen:
                seen.add(key)
                c = decode(key)
                if 2 * c[0] == c[1]:
                    imaginary.add(key)
                w = disagreements(c)
                if w:
                    wrong[key] = w
        if wrong and not wrong.keys().isdisjoint(row):
            for j, key in enumerate(row, i + 1):
                dn = (ns[j] - ni) % k2
                dot = wrong.get(key, {}).get(dn)
                if dot is not None:
                    exact_zero = key in imaginary and dn % k == 0
                    raise PrecisionDisagreement(
                        f"pair ({i}, {j}): exact says "
                        f"{'zero' if exact_zero else 'nonzero'}, "
                        f"{float_dps}-digit value is "
                        f"{libmp.to_str(libmp.from_man_exp(dot, -2 * bits), 8)}"
                    )
        # is_spurious_exact: purely imaginary c and dn = 0 (mod K)
        mates = classes[ni % k]
        for j in mates[bisect_right(mates, i):]:
            if row[j - i - 1] in imaginary:
                report.spurious.append((i, j))
    return report


def scan_spurious_zero_phases(cfg: Configuration) -> list[tuple[int, int]]:
    """Pairs spurious under the canonical realification (all phases zero):
    exactly the non-orthogonal pairs with purely imaginary inner product."""
    return sorted(cfg.imaginary_pairs)


def check_k(k: int) -> None:
    """Raise InvalidK unless ``k`` is a positive integer coprime to 6, the
    rule PhaseAssignment enforces."""
    if k <= 0 or gcd(k, 6) != 1:
        raise InvalidK(f"K={k}: need a positive integer coprime to 6")


# export digits: at least what phase_apply_export evaluates to, at most what
# exports 741 rays in about 1 s (3.8 s at 2,000: faster than linear growth)
MIN_PRECISION, MAX_PRECISION = 15, 1000
# digits beyond the export's precision at a ray's first evaluation, and the
# most that its retries, each at twice the bits, may reach
EXPORT_GUARD_DIGITS, EXPORT_MAX_GUARD_DIGITS = 15, 1000


def check_precision(precision: int) -> None:
    """Raise ValueError unless ``precision`` lies in MIN_PRECISION ..
    MAX_PRECISION significant digits."""
    if not MIN_PRECISION <= precision <= MAX_PRECISION:
        raise ValueError(f"precision must be >= {MIN_PRECISION} and <= {MAX_PRECISION} "
                         f"significant digits, got {precision}")


def phase_apply_export(
    cfg: Configuration,
    pa: PhaseAssignment,
    precision: int = 20,
) -> list[tuple[str, ...]]:
    """Evaluate each phase-adjusted realified ray as a 6-tuple of decimal
    strings of ``precision`` significant digits, each correctly rounded
    (half to even) and laid out as libmp.to_str (what mp.nstr calls) lays
    out a number, with a trailing ".0" dropped.

    The rotation acts per complex coordinate z = a + b*w: twice the real
    and imaginary slots of e^{i theta} z are (2a - b)*cos - b*sqrt3*sin and
    (2a - b)*sin + b*sqrt3*cos.  A ray is evaluated in W-bit fixed point:
    cos and sin of theta come from one mpf_cos_sin call at W + 8 bits,
    rounded to nearest (_cos_sin), and are rounded to integers C and S in
    units of 2^-W; sqrt3 is R = isqrt(3 * 4^W), so 0 <= sqrt3*2^W - R < 1.
    Each slot is then one integer F in units of 2^-(2W+1), exact in the
    integers, within

        E = |2a - b| * e*2^W + |b| * (|S| + 2e*2^W)    (real slot)
        E = |2a - b| * e*2^W + |b| * (|C| + 2e*2^W)    (imaginary slot)

    of the true value, where e bounds |C - cos*2^W| and |S - sin*2^W|.  The
    angle, below 2pi and rounded three times, is off by less than 19 units
    in 2^-(W+8), and mpf_cos_sin adds about one more, so both are within
    1/2 + 21/256 units in 2^-W and e = 1 holds with room to spare.

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
    tie goes to the even neighbour.  When the two ends round apart, the
    whole ray is evaluated again at twice the bits.  The
    first evaluation works at dps_to_prec(precision + EXPORT_GUARD_DIGITS)
    bits; past dps_to_prec(precision + EXPORT_MAX_GUARD_DIGITS) bits
    ExportUndecided is raised.  Both committed configurations export at
    the first evaluation.
    """
    check_precision(precision)
    if len(pa.n) != cfg.n_rays:
        raise ValueError("phase assignment does not cover the configuration")
    first = libmp.dps_to_prec(precision + EXPORT_GUARD_DIGITS)
    cap = libmp.dps_to_prec(precision + EXPORT_MAX_GUARD_DIGITS)
    rows: list[tuple[str, ...]] = []
    for i, (ray, nk) in enumerate(zip(cfg.rays, pa.n)):
        prec = first
        while (row := _export_row(ray.vec, nk, pa.K, precision, prec)) is None:
            if 2 * prec > cap:
                raise ExportUndecided(
                    f"ray {i}: a field of {precision} digits is undecided "
                    f"at {prec} bits, the last before the {cap}-bit cap")
            prec *= 2
        rows.append(row)
    return rows


def _export_row(vec, nk: int, k: int, precision: int, prec: int) -> tuple[str, ...] | None:
    """The six fields of e^{i*pi*nk/k} vec as phase_apply_export writes
    them, from one evaluation in W = prec - 8 bit fixed point; None when
    some field is undecided at this W."""
    w = prec - 8
    if nk % k:
        c, s = (_fixed(x, w) for x in _cos_sin(nk, k, prec))
        ew = 1 << w  # e = 1 unit in 2^-W, in units of 2^-2W
    else:  # theta = 0 or pi, exactly
        c, s, ew = (1 << w) if nk == 0 else -(1 << w), 0, 0
    r = math.isqrt(3 << 2 * w)  # floor(sqrt3 * 2^W)
    cw, sw, rc, rs = c << w, s << w, r * c, r * s
    err_re, err_im = abs(s) + 2 * ew, abs(c) + 2 * ew
    uv = [(2 * z.a - z.b, z.b) for z in vec]
    return _decimal_fields(
        [(u * cw - v * rs, abs(u) * ew + abs(v) * err_re) for u, v in uv]
        + [(u * sw + v * rc, abs(u) * ew + abs(v) * err_im) for u, v in uv],
        2 * w + 1, precision)


def _fixed(x: tuple, w: int) -> int:
    """The raw mpf ``x`` in units of 2^-w, rounded to nearest, ties to even."""
    return libmp.to_int(libmp.mpf_shift(x, w), libmp.round_nearest)


def _decimal_fields(values, shift: int, precision: int) -> tuple[str, ...] | None:
    """Each f / 2^shift, known to within err / 2^shift for (f, err) in
    ``values``, correctly rounded half to even to ``precision`` significant
    digits by ``decimal`` and laid out as libmp.to_str lays it out, less a
    trailing ".0"; "0" when f = err = 0, and one exact division when
    err = 0.  Rounding is monotone, so a field is decided when both ends of
    [f - err, f + err] round to the same decimal; the ends are first
    rounded outward to units of 2^cut, cut = shift // 2, which only widens
    the interval and halves the operands.  None when some field is not
    decided."""
    ctx = Context(prec=precision, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX, Emin=MIN_EMIN)
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


def _cos_sin(n: int, k: int, prec: int) -> tuple[tuple, tuple]:
    """cos and sin of pi*n/k as raw mpf at ``prec`` bits, from one
    mpf_cos_sin call; the angle is rounded as mp.pi * n / k rounds it."""
    rnd = libmp.round_nearest
    theta = libmp.mpf_mul_int(libmp.mpf_pi(prec, rnd), n, prec, rnd)
    return libmp.mpf_cos_sin(libmp.mpf_div(theta, libmp.from_int(k), prec, rnd), prec, rnd)


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
                         f"{lines[0] if lines else ''!r}")
    k = int(header[1])
    entries: dict[int, int] = {}
    for ln in lines[1:]:
        fields = ln.split()
        # "<ray id> <n_k>": digits, and an optional "-" then digits
        if (len(fields) != 2 or not ascii_digits(fields[0])
                or not ascii_digits(fields[1].removeprefix("-"))):
            raise ValueError(f"bad phase line: {ln!r}")
        ray_id = int(fields[0])
        if ray_id in entries:
            raise ValueError(f"ray id {ray_id} appears twice in the phase file")
        entries[ray_id] = int(fields[1])
    if sorted(entries) != list(range(len(entries))):
        raise ValueError("phase file must cover ray ids 0..N-1")
    return PhaseAssignment(K=k, n=tuple(entries[i] for i in range(len(entries))))


def save_vectors(rows: list[tuple[str, ...]], precision: int) -> str:
    """Vector export: "# precision=<p>" header, six decimal fields per line."""
    lines = [f"# precision={precision}"]
    lines += [" ".join(row) for row in rows]
    return "\n".join(lines) + "\n"
