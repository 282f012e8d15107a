"""The 165-ray / 130-context orthogonality hypergraph, rebuilt from the MUBs.

The four mutually unbiased bases of C^3 seed a conjugate-cross-product
closure; completions are kept while their squared norm divides a small bound
(6 by default, the stratum of the published configuration).  Rays are held in
a projective canonical form so that equality, hashing and file round-trips
are exact.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import gcd

from .exact import (
    E_ZERO,
    E_ONE,
    OMEGA,
    OMEGA2,
    EisensteinInt,
    Flat,
    VecC3,
    flat_canonical,
    flat_cross_row,
    flat_inner_row,
    flat_lane_rows,
    flat_sq_norm,
    hermitian_inner,
)


class ZeroVector(ValueError):
    """Raised when a ray representative is the zero vector."""


class DivergenceGuard(RuntimeError):
    """Closure exceeded its ray cap: a size guard, since every bounded
    closure is finite."""


class NonTriangleClique(ValueError):
    """The orthogonality graph has a maximal clique of size != 3."""


class ParseError(ValueError):
    """Malformed ray file; carries the offending line number, or None when
    the fault is in the file as a whole."""

    def __init__(self, lineno: int | None, message: str):
        super().__init__(message if lineno is None else f"line {lineno}: {message}")
        self.lineno = lineno


def ascii_digits(text: str) -> bool:
    """True iff ``text`` is one or more ASCII digits.  Ray and phase files
    write an integer as an optional "-" and such digits; int() would also
    take "+", "_", spaces and the digits of other scripts."""
    return text.isascii() and text.isdigit()


def echo(text: str) -> str:
    """``text`` as a parse error quotes it: its repr, cut to the first 20
    characters and "..." when it is longer, so an error stays short."""
    return repr(text) if len(text) <= 20 else f"{text[:20]!r}..."


class DuplicateRay(ValueError):
    """Two input rays canonicalize to the same projective class; ``first``
    and ``second`` are their 0-based positions among the input rays."""

    def __init__(self, first: int, second: int, message: str | None = None):
        super().__init__(message or f"rays {first} and {second} are the same projective class")
        self.first, self.second = first, second


def canonicalize(v: VecC3) -> VecC3:
    """Projective canonical form: divide by the first nonzero coordinate over
    Q(w), then clear denominators to a Z[w] vector whose first nonzero
    coordinate is a positive rational integer.  Idempotent, and constant on
    parallel classes; computed in integers by exact.flat_canonical."""
    return VecC3.from_flat(_canonical_flat(v))


def _canonical_flat(v: VecC3) -> Flat:
    f = v.flat()
    if not any(f):
        raise ZeroVector("cannot canonicalize the zero vector")
    return flat_canonical(f)


def mub_bases() -> list[list[VecC3]]:
    """The four mutually unbiased bases of C^3, canonicalized.

    Basis 0 is the computational basis; the other three are the w-phase
    bases.  Each basis is internally orthogonal and every cross-basis pair u,
    v satisfies norm(<u,v>) * 3 = |u|^2 * |v|^2 exactly.
    """
    one, w, w2 = E_ONE, OMEGA, OMEGA2
    zero = E_ZERO
    raw = [
        [VecC3.make(one, zero, zero), VecC3.make(zero, one, zero), VecC3.make(zero, zero, one)],
        [VecC3.make(one, one, one), VecC3.make(one, w, w2), VecC3.make(one, w2, w)],
        [VecC3.make(one, one, w), VecC3.make(one, w, one), VecC3.make(w, one, one)],
        [VecC3.make(one, one, w2), VecC3.make(one, w2, one), VecC3.make(w2, one, one)],
    ]
    return [[canonicalize(v) for v in basis] for basis in raw]


def mub_seed() -> list[VecC3]:
    """The 12 MUB rays as a flat closure seed."""
    return [v for basis in mub_bases() for v in basis]


def is_unbiased(u: VecC3, v: VecC3) -> bool:
    """Exact unbiasedness test in dimension 3, square-root free:
    norm(<u,v>) * 3 == |u|^2 * |v|^2."""
    return hermitian_inner(u, v).norm() * 3 == u.sq_norm() * v.sq_norm()


@dataclass(frozen=True, slots=True)
class Ray:
    """A ray as its canonical flat, with its id (its place in assembly order)
    and its squared norm (that order's first key), kept so that readers of a
    configuration need neither recount nor recompute them."""

    id: int
    flat: Flat
    sq_norm: int


@dataclass(frozen=True)
class Configuration:
    """Rays plus their orthogonality edges and 3-element contexts.

    ``edges`` are the id pairs (i < j) with zero Hermitian inner product,
    ``imaginary_pairs`` those with a nonzero purely imaginary one: the only
    pairs a phase-adjusted realification can make spuriously orthogonal.
    ``contexts`` are sorted triples of ray ids that are pairwise
    Hermitian-orthogonal."""

    rays: list[Ray]
    edges: frozenset[tuple[int, int]]
    imaginary_pairs: frozenset[tuple[int, int]]
    contexts: list[tuple[int, int, int]]
    adjacency: list[set[int]] = field(repr=False)

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    def pair_inner(self, i: int, j: int) -> EisensteinInt:
        return EisensteinInt(*flat_inner_row(self.rays[i].flat, (self.rays[j].flat,))[0])


def _assemble(flats: list[Flat], strict: bool = True) -> Configuration:
    """Sort distinct canonical flat vectors into stable ids (by squared norm,
    then coefficients), scan all pairs for edges and purely imaginary pairs,
    and enumerate contexts (with clique validation).  The one place a
    Configuration is built.

    The scan reads the lane kernel (exact.flat_lane_rows): the rays'
    coefficient columns are packed once into big integers, one lane per
    ray, wide enough for every lane value, and each row is one packed
    combination whose lanes hold 2A - B of <u, v> = A + B*w, twice the real
    part.  Its zero lanes, found by an aligned bytes.find over an array
    row's bytes (a list row's index method), are the pairs with zero real
    part, and only those get a scalar flat_inner_row, to tell an edge
    (A = 0) from a purely imaginary pair."""
    keyed = sorted((flat_sq_norm(f), f) for f in flats)
    rays = [Ray(i, f, sq) for i, (sq, f) in enumerate(keyed)]
    ordered = [f for _, f in keyed]
    n = len(rays)
    adjacency: list[set[int]] = [set() for _ in range(n)]
    edges = set()
    imaginary = set()
    for i, row in enumerate(flat_lane_rows(ordered, 2, -1)):
        js = []
        if isinstance(row, list):  # lanes wider than 8 bytes
            p = -1
            try:
                while True:
                    p = row.index(0, p + 1)
                    js.append(i + 1 + p)
            except ValueError:  # no zero lane after p
                pass
        else:
            # a zero run starting inside a lane straddles two: skip to the next
            data, width = row.tobytes(), row.itemsize
            zero = bytes(width)
            p = data.find(zero)
            while p >= 0:
                if not p % width:
                    js.append(i + 1 + p // width)
                p = data.find(zero, p + width - p % width)
        for j, (a, _) in zip(js, flat_inner_row(ordered[i], [ordered[j] for j in js])):
            if a == 0:
                edges.add((i, j))
                adjacency[i].add(j)
                adjacency[j].add(i)
            else:
                imaginary.add((i, j))
    contexts = build_contexts(edges, adjacency, strict=strict)
    return Configuration(rays=rays, edges=frozenset(edges),
                         imaginary_pairs=frozenset(imaginary), contexts=contexts,
                         adjacency=adjacency)


def build_contexts(
    edges: set[tuple[int, int]],
    adjacency: list[set[int]],
    strict: bool = True,
) -> list[tuple[int, int, int]]:
    """All triangles of the orthogonality graph, as sorted id triples.

    Validates the hypergraph shape: no triangle may extend to a 4-clique
    (impossible for genuine rays of C^3, so it signals corrupt input), and in
    strict mode every maximal clique must have size exactly 3: no edge
    outside every triangle, no isolated ray.  Raises NonTriangleClique
    otherwise.  Non-strict mode serves partial ray files, where lone rays and
    uncompleted orthogonal pairs are legitimate.
    """
    n = len(adjacency)
    triangles: list[tuple[int, int, int]] = []
    for i, j in sorted(edges):
        for k in sorted(adjacency[i] & adjacency[j]):
            if k > j:
                triangles.append((i, j, k))
    for i, j, k in triangles:
        extension = adjacency[i] & adjacency[j] & adjacency[k]
        if extension:
            raise NonTriangleClique(
                f"triangle {(i, j, k)} extends by {sorted(extension)}"
            )
    if strict:
        uncovered = sorted((i, j) for i, j in edges if not adjacency[i] & adjacency[j])
        if uncovered:
            raise NonTriangleClique(
                f"{len(uncovered)} edges lie in no triangle, e.g. {uncovered[0]}"
            )
        isolated = [i for i in range(n) if not adjacency[i]]
        if isolated:
            raise NonTriangleClique(
                f"isolated rays (maximal cliques of size 1): {isolated}"
            )
    return triangles


def closure_generate(
    seed: list[VecC3],
    keep_norm_dividing: int = 6,
    cap: int = 10_000,
    strict: bool = True,
) -> Configuration:
    """Generate a configuration by conjugate-cross-product closure.

    Repeatedly, for every ray pair, canonicalize conj_cross(u, v) and insert
    it if new, iterating to a fixed point; the pairs are never parallel (the
    rays are distinct canonical forms, constant on parallel classes).  A
    completion is kept only when its squared norm divides
    ``keep_norm_dividing``.  The default bound 6 makes the 12-ray MUB seed
    converge to exactly the published 165-ray / 130-context configuration.
    Every bounded closure is finite: only finitely many canonical rays have
    a squared norm dividing the bound.

    The closure is not equivariant above published scale.  The filter tests
    the canonical representative, whose norm depends on coordinate order:
    the ray (1, -3-2w, -1-w) has norm 9, which divides 18, but its (0 1)-swap
    canonicalizes to norm 63.  So at bound 18 (741 rays) only a group of
    order 6 (diag(1, 1, w) and conjugation) preserves the set; at bound 6 the
    165-ray set is invariant under the group of order 108.

    A product x is skipped before it is canonicalized by two exact tests
    on its coordinate norms n_k = N(x_k) (conjugation keeps them, so they
    are read off u x v and only the survivors are conjugated).  Let z0 be
    x's first nonzero coordinate, n_k0 = N(z0) and |x|^2 = n1 + n2 + n3.

    First, x is skipped when bound * n_k0 is not a multiple of |x|^2.
    flat_canonical multiplies x by conj(z0), which turns coordinate k0
    into the integer n_k0, then divides by the content g, which therefore
    divides n_k0.  So the canonical norm S = n_k0 * |x|^2 / g^2 satisfies
    S * n_k0 = t^2 * |x|^2 with t = n_k0 / g a positive integer.  If S
    divides the bound, bound = m * S, then bound * n_k0 = m * t^2 * |x|^2.

    Second, x is skipped when |x|^2 > bound * gcd(n1, n2, n3).  Z[w] is a
    UFD: write x = d*y with y primitive, so z0 = d*y0.  flat_canonical(x)
    divides conj(z0) * x = N(d) * conj(y0) * y by its integer content
    N(d) * h, giving conj(y0) * y / h.  The integer h divides every
    conj(y0) * y_k, so it divides conj(y0), as y is primitive; so h^2
    divides N(y0), and the canonical norm N(y0) * |y|^2 / h^2 is at least
    |y|^2 = |x|^2 / N(d).  N(d) divides every n_k, so N(d) <= gcd(n1, n2,
    n3): a skipped product's canonical norm exceeds the bound and cannot
    divide it.

    The pretests only skip what the norm filter would, so the rays, their
    order and the DivergenceGuard are those of the plain loop.
    ``keep_norm_dividing`` must be a positive int, since below 1 the
    pretests would skip every product, and so must ``cap``; anything else
    raises ValueError before any work.

    Raises DivergenceGuard when the ray count, the seed's distinct rays
    included, exceeds ``cap``.  ``strict`` is passed to the assembly:
    non-strict admits the edges outside every triangle that bounds above 6
    produce (bound 18 gives the 741-ray stress file).
    """
    bound = keep_norm_dividing
    if type(bound) is not int or bound <= 0:
        raise ValueError(f"keep_norm_dividing must be a positive int, not {bound!r}")
    if type(cap) is not int or cap <= 0:
        raise ValueError(f"cap must be a positive int, not {cap!r}")
    if not seed:
        raise ZeroVector("empty seed")
    vecs: list[Flat] = []
    seen: set[Flat] = set()
    for v in seed:
        c = _canonical_flat(v)
        if c not in seen:
            seen.add(c)
            vecs.append(c)
    if len(vecs) > cap:
        raise DivergenceGuard(f"closure exceeded {cap} rays; raise cap to admit more")
    i = 0
    while i < len(vecs):
        # u x v for j < i, all in vecs before any product of row i is added
        for p1, q1, p2, q2, p3, q3 in flat_cross_row(vecs[i], vecs[:i]):
            n1 = p1 * (p1 - q1) + q1 * q1
            n2 = p2 * (p2 - q2) + q2 * q2
            n3 = p3 * (p3 - q3) + q3 * q3
            s = n1 + n2 + n3
            if bound * (n1 or n2 or n3) % s or s > bound * gcd(n1, n2, n3):
                continue
            c = flat_canonical((p1 - q1, -q1, p2 - q2, -q2, p3 - q3, -q3))
            if c in seen or bound % flat_sq_norm(c):
                continue
            seen.add(c)
            vecs.append(c)
            if len(vecs) > cap:
                raise DivergenceGuard(f"closure exceeded {cap} rays; raise cap to admit more")
        i += 1
    return _assemble(vecs, strict=strict)


def configuration_from_vectors(vecs: list[VecC3], strict: bool = True) -> Configuration:
    """Canonicalize, deduplicate-check and assemble an explicit ray list."""
    canon = [_canonical_flat(v) for v in vecs]
    seen: dict[Flat, int] = {}
    for pos, c in enumerate(canon):
        if c in seen:
            raise DuplicateRay(seen[c], pos)
        seen[c] = pos
    return _assemble(canon, strict=strict)


def subconfiguration(cfg: Configuration, ids: list[int]) -> Configuration:
    """Induced sub-configuration on a subset of ray ids, assembled afresh
    from the kept rays without clique validation (induced graphs
    legitimately contain edges outside every triangle).

    The result is the induced one: the kept rays are canonical and already
    in assembly order, so their ids remap in order; edges and purely
    imaginary pairs are recomputed exactly; and every triangle of cfg is a
    context, so the new contexts are cfg's contexts inside the subset, in
    cfg's order.  Raises ValueError naming every id outside 0..n-1.
    """
    out = sorted({i for i in ids if not 0 <= i < cfg.n_rays})
    if out:
        raise ValueError(f"ray ids outside 0..{cfg.n_rays - 1}: {out}")
    return _assemble([cfg.rays[i].flat for i in sorted(set(ids))], strict=False)


# --- ray file format -------------------------------------------------------
#
# One ray per line, three whitespace-separated coordinates, each "a,b"
# meaning a + b*w.  "#" begins a comment.


def _in_published_alphabet(a: int, b: int) -> bool:
    # c*w^k with |c| <= 2: two-coefficient forms (c,0), (0,c), (-c,-c)
    if b == 0:
        return abs(a) <= 2
    if a == 0:
        return abs(b) <= 2
    return a == b and abs(a) <= 2


def export_rays(cfg: Configuration) -> str:
    """Serialize rays in id order; ingest of the result is the identity."""
    lines = [f"# {cfg.n_rays} rays"]
    for ray in cfg.rays:
        lines.append(" ".join(f"{a},{b}" for a, b in zip(ray.flat[::2], ray.flat[1::2])))
    return "\n".join(lines) + "\n"


def ingest_rays(text: str) -> Configuration:
    """Parse a ray file and assemble the configuration it describes.

    Raises ParseError (with line number) on malformed input and DuplicateRay
    (naming both lines) when two lines canonicalize identically.  For a
    165-ray configuration the published coefficient-range claim (every
    coordinate an integer in {-2..2} times a power of w) is checked and
    violations warn, not error.
    """
    vecs: list[VecC3] = []
    linenos: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 3:
            raise ParseError(lineno, f"expected 3 coordinates, got {len(fields)}")
        coords = []
        for f in fields:
            parts = f.split(",")
            if len(parts) != 2:
                raise ParseError(lineno, f"coordinate {echo(f)} is not of the form a,b")
            if not all(ascii_digits(p.removeprefix("-")) for p in parts):
                raise ParseError(lineno, f"non-integer coefficient in {echo(f)}")
            try:
                coords.append(EisensteinInt(int(parts[0]), int(parts[1])))
            except ValueError:  # more digits than int() converts
                raise ParseError(lineno, f"coefficient of {max(map(len, parts))} characters "
                                 "exceeds the integer conversion limit") from None
        v = VecC3(tuple(coords))  # type: ignore[arg-type]
        if v.is_zero():
            raise ParseError(lineno, "zero vector is not a ray")
        vecs.append(v)
        linenos.append(lineno)
    if not vecs:
        raise ParseError(None, "no rays in input")
    try:
        cfg = configuration_from_vectors(vecs, strict=False)
    except DuplicateRay as e:
        raise DuplicateRay(e.first, e.second, f"line {linenos[e.second]}: same projective "
                           f"class as line {linenos[e.first]}") from None
    if cfg.n_rays == 165:
        bad = [r.id for r in cfg.rays
               if not all(map(_in_published_alphabet, r.flat[::2], r.flat[1::2]))]
        if bad:
            warnings.warn(
                f"165-ray configuration has {len(bad)} rays outside the "
                f"published coefficient alphabet, e.g. ray {bad[0]}",
                stacklevel=2,
            )
    return cfg

