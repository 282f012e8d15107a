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
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

import mpmath as mp

from .configuration import Configuration
from .exact import EisensteinInt, flat_inner_row


class ZeroInnerProduct(ValueError):
    """Forbidden phases are only defined for non-orthogonal pairs."""


class InvalidK(ValueError):
    """K must be a positive integer with gcd(K, 6) = 1."""


class SearchExhausted(RuntimeError):
    """No valid phase assignment exists for this K under this strategy."""


class PrecisionDisagreement(RuntimeError):
    """Exact and high-precision floating verdicts differ for some pair."""


STRATEGIES = ("distinct", "backtracking", "greedy-random")


def _check_k(k: int) -> None:
    if k <= 0 or gcd(k, 6) != 1:
        raise InvalidK(f"K={k}: need a positive integer coprime to 6")


@dataclass(frozen=True)
class PhaseAssignment:
    """Integers n_k defining per-ray phases theta_k = n_k*pi/K, n_k mod 2K."""

    K: int
    n: tuple[int, ...]

    def __post_init__(self):
        _check_k(self.K)
        object.__setattr__(self, "n", tuple(v % (2 * self.K) for v in self.n))

    def shifted(self, t: int) -> PhaseAssignment:
        """Global phase shift n_k -> n_k + t; leaves all verdicts invariant."""
        return PhaseAssignment(self.K, tuple(v + t for v in self.n))


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
    _check_k(k)
    if c.is_zero():
        raise ZeroInnerProduct("zero test is for non-orthogonal pairs")
    return c.is_purely_imaginary() and dn % k == 0


def rational_phase_search(
    cfg: Configuration,
    k: int = 1009,
    strategy: str = "distinct",
    rng_seed: int = 0,
) -> PhaseAssignment:
    """Find integers n with no spurious pair under theta = n*pi/K.

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
    _check_k(k)
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
    zero_threshold_exp: int = -50,
) -> FaithfulnessReport:
    """Check all unordered ray pairs for the faithfulness conditions.

    The pass reads only the rays, not ``cfg.edges`` or ``cfg.imaginary_pairs``:
    it is the independent check of the assembly scan.  Orthogonal pairs stay
    orthogonal for every phase choice (the real dot is Re(e^{i dtheta} * 0)),
    so ``missing`` can only remain empty; it is kept in the report as the
    structural assertion.  Every non-orthogonal pair is classified by the
    exact criterion (is_spurious_exact) and cross-checked in fixed point:

    - mpmath evaluates, at ``float_dps`` decimal digits, cos and sin of
      dn*pi/K for each dn mod 2K that occurs, and Re c/|c| and Im c/|c| for
      each distinct inner product c;
    - each value is rounded to an integer in units of 2^-bits, with
      bits = ceil(float_dps * log2(10)) + 8;
    - a pair's normalized dot Re(e^{i dn pi/K} c)/|c| is then the integer
      (Re c/|c|)*cos - (Im c/|c|)*sin in units of 2^-2bits, and reads zero
      when its magnitude is below 10^zero_threshold_exp in those units.

    Every factor has |x| <= 1, so the fixed-point rounding moves the dot by
    less than 2^(2-bits), to which mpmath's own rounding at ``float_dps``
    digits adds; at the default 60 digits (bits = 208) both are below
    10^-59, far under the 10^-50 cutoff.  The float verdict must agree with
    the exact one on every pair, otherwise PrecisionDisagreement is raised.
    """
    if len(pa.n) != cfg.n_rays:
        raise ValueError(
            f"phase assignment covers {len(pa.n)} rays, configuration has {cfg.n_rays}"
        )
    k, ns = pa.K, pa.n
    k2 = 2 * k
    flats = [ray.vec.flat() for ray in cfg.rays]
    bits = math.ceil(float_dps * math.log2(10)) + 8
    # for an integer dot, |dot| < ceil(t) iff |dot| < t: the cutoff is exact
    threshold = math.ceil(Fraction(10) ** zero_threshold_exp * (1 << (2 * bits)))
    report = FaithfulnessReport()
    with mp.workdps(float_dps):
        sqrt3 = mp.sqrt(3)

        def fixed(x: mp.mpf) -> int:
            return int(mp.nint(mp.ldexp(x, bits)))

        trig: dict[int, tuple[int, int]] = {}   # dn mod 2K -> (cos, sin)
        units: dict[tuple[int, int], tuple[int, int]] = {}  # c -> (Re, Im) of c/|c|
        for i in range(cfg.n_rays - 1):
            ni = ns[i]
            row = flat_inner_row(flats[i], flats[i + 1:])
            report.pairs_checked += len(row)
            for j, c in enumerate(row, i + 1):
                a, b = c
                if not (a or b):
                    # real dot of images is Re(e^{i dtheta} * 0) = 0 exactly
                    continue
                dn = (ns[j] - ni) % k2
                # is_spurious_exact: purely imaginary c and dn = 0 (mod K)
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
                    report.spurious.append((i, j))
    return report


def scan_spurious_zero_phases(cfg: Configuration) -> list[tuple[int, int]]:
    """Pairs spurious under the canonical realification (all phases zero):
    exactly the non-orthogonal pairs with purely imaginary inner product."""
    return sorted(cfg.imaginary_pairs)


def minimal_k_probe(
    cfg: Configuration,
    strategy: str = "backtracking",
    candidates: tuple[int, ...] = (5, 7, 11, 13, 17, 19, 23, 25),
) -> tuple[int, PhaseAssignment] | None:
    """Smallest K from ``candidates`` for which the strategy succeeds.

    An experiment, not a minimality proof: it records what worked, nothing
    more.  Candidates with gcd(K, 6) != 1 are skipped.
    """
    for k in candidates:
        if gcd(k, 6) != 1:
            continue
        try:
            pa = rational_phase_search(cfg, k, strategy)
        except SearchExhausted:
            continue
        return k, pa
    return None


def phase_apply_export(
    cfg: Configuration,
    pa: PhaseAssignment,
    precision: int = 20,
) -> list[tuple[str, ...]]:
    """Evaluate each phase-adjusted realified ray to ``precision`` significant
    digits (correctly rounded), as 6-tuples of decimal strings.

    The rotation acts per complex coordinate: for z with exact parts
    (re, im), the image contributes (re*cos - im*sin, re*sin + im*cos) to the
    real and imaginary slots.
    """
    if precision < 15:
        raise ValueError(f"precision must be >= 15 significant digits, got {precision}")
    if len(pa.n) != cfg.n_rays:
        raise ValueError("phase assignment does not cover the configuration")
    rows: list[tuple[str, ...]] = []
    with mp.workdps(precision + 15):
        sqrt3 = mp.sqrt(3)
        abs_eps = mp.mpf(10) ** (-(precision + 10))

        def fmt(x: mp.mpf) -> str:
            if mp.almosteq(x, 0, abs_eps=abs_eps):
                return "0"
            s = mp.nstr(x, precision, strip_zeros=True)
            return s[:-2] if s.endswith(".0") else s

        for ray, nk in zip(cfg.rays, pa.n):
            theta = mp.pi * nk / pa.K
            cth, sth = mp.cos(theta), mp.sin(theta)
            res, ims = [], []
            for z in ray.vec:
                re = mp.mpf(2 * z.a - z.b) / 2
                im = sqrt3 * z.b / 2
                res.append(re * cth - im * sth)
                ims.append(re * sth + im * cth)
            rows.append(tuple(fmt(x) for x in res + ims))
    return rows


# --- file formats ----------------------------------------------------------


def save_phases(pa: PhaseAssignment) -> str:
    """Phase file: header "K <value>", then one "ray_id n_k" per line."""
    lines = [f"K {pa.K}"]
    lines += [f"{i} {nk}" for i, nk in enumerate(pa.n)]
    return "\n".join(lines) + "\n"


def load_phases(text: str) -> PhaseAssignment:
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].startswith("K "):
        raise ValueError("phase file must start with a 'K <value>' header")
    k = int(lines[0].split()[1])
    entries: dict[int, int] = {}
    for ln in lines[1:]:
        fields = ln.split()
        if len(fields) != 2:
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
