"""Two-valued states on the orthogonality hypergraph, with certificates.

Two admissibility models.  COMPLEX_MAXIMAL treats every 3-element context as
maximal: exclusivity on all orthogonality edges and exactly one value-1 ray
per context.  REAL_EMBEDDED keeps exclusivity (faithfully embedded rays stay
orthogonal) but each context spans only a 3-dimensional subspace of R^6, so
its sum relaxes to at most 1.

The solver is an in-repo propagation/backtracking engine (no external
dependencies, so certificates replay from this module alone).  Assignments
are bitmasks over rays, relabelled by branching rank so the branch ray is
the lowest free bit.  Contexts are bitmasks over their indices, one per
slot: the contexts whose first, second or third ray is zero.  Neighbor
tables, built once per configuration, turn setting a ray to 1 (which zeroes
its neighbors) into one OR per mask, with no loop over the neighbors.  The
contexts to cover are a set of indices; all-zero contexts among them count
against an uncovered budget, and once the budget is saturated the third ray
of every open two-zero context is forced to 1, lowest index first.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import combinations

from .configuration import Configuration


class SizeMismatch(ValueError):
    """Valuation length differs from the configuration's ray count."""


class InconsistentCertificates(RuntimeError):
    """Optimum and colorability certificates contradict each other."""


class EngineError(RuntimeError):
    """The search engine failed one of its own checks."""


class ModelKind(Enum):
    """COMPLEX_MAXIMAL: each context sums to exactly 1.
    REAL_EMBEDDED: pairwise exclusivity only; each context sums to at most 1.
    Every COMPLEX_MAXIMAL-admissible valuation is REAL_EMBEDDED-admissible."""

    COMPLEX_MAXIMAL = "complex-maximal"
    REAL_EMBEDDED = "real-embedded"


@dataclass(frozen=True)
class Valuation:
    """A 0/1 value per ray id."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("valuation entries must be 0 or 1")

    @classmethod
    def zeros(cls, n: int) -> Valuation:
        return cls((0,) * n)

    @classmethod
    def from_mask(cls, mask: int, n: int) -> Valuation:
        return cls(tuple((mask >> i) & 1 for i in range(n)))

    def ones(self) -> list[int]:
        return [i for i, b in enumerate(self.bits) if b]


@dataclass(frozen=True)
class Violation:
    """One admissibility failure: kind is "exclusivity" (edge with both
    endpoints 1), "context_sum_above_one", or "context_uncovered" (sum 0,
    COMPLEX_MAXIMAL only)."""

    kind: str
    where: tuple[int, ...]


def check_valuation(cfg: Configuration, val: Valuation, model: ModelKind) -> list[Violation]:
    """All violations of the model's admissibility criteria; empty = admissible."""
    if len(val.bits) != cfg.n_rays:
        raise SizeMismatch(f"{len(val.bits)} values for {cfg.n_rays} rays")
    out: list[Violation] = []
    for i, j in sorted(cfg.edges):
        if val.bits[i] and val.bits[j]:
            out.append(Violation("exclusivity", (i, j)))
    for ci, ctx in enumerate(cfg.contexts):
        s = sum(val.bits[r] for r in ctx)
        if s > 1:
            out.append(Violation("context_sum_above_one", (ci,)))
        elif s == 0 and model is ModelKind.COMPLEX_MAXIMAL:
            out.append(Violation("context_uncovered", (ci,)))
    return out


def covered_contexts(cfg: Configuration, val: Valuation) -> int:
    """Number of contexts whose three rays carry total value exactly 1."""
    return sum(1 for ctx in cfg.contexts if sum(val.bits[r] for r in ctx) == 1)


# --- search engine ---------------------------------------------------------


@dataclass(frozen=True)
class _Tables:
    """A configuration as _solve reads it: ray ``order[i]`` is bit i (rays
    relabelled by branching rank), contexts keep their indices.

    ``slot[k][r]`` holds the contexts whose k-th ray is r, ``near[k][r]`` the
    OR of ``slot[k][s]`` over the neighbors s of r (the k-th slots zeroed
    when r goes to 1), and ``cover[r]`` the contexts of r.
    """

    source: tuple                     # the (adj, contexts, order) described
    adj: tuple[int, ...]
    rays: tuple[tuple[int, int, int], ...]
    slot: tuple[tuple[int, ...], ...]
    near: tuple[tuple[int, ...], ...]
    cover: tuple[int, ...]


def _build_tables(adj, contexts, order) -> _Tables:
    rank = [0] * len(adj)
    for i, r in enumerate(order):
        rank[r] = i
    rays = tuple(tuple(rank[r] for r in ctx) for ctx in contexts)
    slot = tuple([0] * len(adj) for _ in range(3))
    for c, ctx in enumerate(rays):
        for k, r in enumerate(ctx):
            slot[k][r] |= 1 << c
    s0, s1, s2 = slot
    radj, n0, n1, n2 = [], [], [], []
    for r in order:
        m = adj[r]
        out = a = b = c = 0
        while m:
            top = m.bit_length() - 1
            s = rank[top]
            out |= 1 << s
            a |= s0[s]
            b |= s1[s]
            c |= s2[s]
            m ^= 1 << top
        radj.append(out)
        n0.append(a)
        n1.append(b)
        n2.append(c)
    return _Tables(
        source=(adj, contexts, order),
        adj=tuple(radj),
        rays=rays,
        slot=tuple(map(tuple, slot)),
        near=(tuple(n0), tuple(n1), tuple(n2)),
        cover=tuple(a | b | c for a, b, c in zip(s0, s1, s2)),
    )


@dataclass(frozen=True)
class _Problem:
    """One search instance, in plain ints and tuples: what _solve reads.

    ``must_cover`` is a set of context indices, stored sorted.  ``tables``
    is built once from adj, contexts and order, and ``dataclasses.replace``
    carries it to every subproblem that keeps those three.
    """

    n: int
    adj: tuple[int, ...]              # neighbor bitmask per ray
    contexts: tuple[tuple[int, int, int], ...]
    must_cover: tuple[int, ...]       # context indices forced to sum to 1
    budget: int                       # must-cover contexts allowed to go all-zero
    order: tuple[int, ...]            # branching order
    tables: _Tables | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "must_cover", tuple(sorted(set(self.must_cover))))
        source = (self.adj, self.contexts, self.order)
        if self.tables is None or any(a is not b for a, b in zip(self.tables.source, source)):
            object.__setattr__(self, "tables", _build_tables(*source))


def _make_problem(cfg: Configuration, must_cover, budget: int) -> _Problem:
    n = cfg.n_rays
    adj = [0] * n
    for i, j in cfg.edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    # descending degree, stable by id: propagation fires earlier, determinism kept
    order = sorted(range(n), key=lambda i: (-cfg.degree(i), i))
    return _Problem(
        n=n,
        adj=tuple(adj),
        contexts=tuple(tuple(ctx.ray_ids) for ctx in cfg.contexts),
        must_cover=must_cover,
        budget=budget,
        order=tuple(order),
    )


@dataclass
class SolveStats:
    nodes: int = 0
    propagations: int = 0


def _solve(problem: _Problem) -> tuple[int | None, SolveStats]:
    """DFS with unit propagation.  Returns (ones mask | None, stats).
    Iterative, so its depth is not bounded by the recursion limit.

    Value order is 1 before 0.  A ray set to 1 zeroes all its neighbors.  A
    must-cover context that goes all-zero consumes budget; past the budget it
    is a conflict, and at the budget every open two-zero must-cover context
    forces its third ray to 1.

    A state is (ones, zeros, covered, z0, z1, z2): ones and zeros over rays
    in rank order, the rest over context indices.  covered has a ray set to 1
    (contexts outside ``must_cover`` start there), and zk has its k-th ray
    zero, so z0 & z1 & z2 is all-zero and z0 ^ z1 ^ z2 ^ (z0 | z1 | z2)
    exactly two-zero.  Setting r to 0 ORs ``slot[k][r]`` into zk; setting it
    to 1 ORs adj[r] into zeros and ``near[k][r]`` into zk, with no loop over
    the neighbors.  The branch ray is the lowest free bit.  The forcing
    sweep takes the lowest open two-zero context at or above a floor that
    moves past each forced context: the order of a scan of ``must_cover``
    that forces as it goes (a force that opens an earlier context is taken
    up by the next sweep), so node and propagation counts, and every
    certificate, follow that scan.
    """
    t = problem.tables
    adj, rays, cover = t.adj, t.rays, t.cover
    s0, s1, s2 = t.slot
    n0, n1, n2 = t.near
    budget = problem.budget
    full = (1 << problem.n) - 1
    covered = (1 << len(rays)) - 1
    for c in problem.must_cover:
        covered &= ~(1 << c)
    nodes = propagations = 0
    # depth-first over an explicit stack of open states: the 0-branch is
    # pushed under the 1-branch, so the 1-subtree is exhausted first, as in
    # the recursive formulation, and the counts match it
    stack = [(0, 0, covered, 0, 0, 0)]
    while stack:
        ones, zeros, covered, z0, z1, z2 = stack.pop()
        while True:  # propagate
            uncovered = (z0 & z1 & z2 & ~covered).bit_count()
            if uncovered != budget:  # over it a conflict, under it no force
                break
            # one sweep: contexts that open below the floor wait for the next
            floor = 0
            while True:
                open2 = ((z0 ^ z1 ^ z2 ^ (z0 | z1 | z2)) & ~covered) >> floor
                if not open2:
                    break
                c = floor + (open2 & -open2).bit_length() - 1
                i, j, k = rays[c]
                r = k if (z0 >> c) & (z1 >> c) & 1 else j if (z0 >> c) & 1 else i
                # r is free (its slot is not zero and c is open), so only a
                # neighbor set to 1 blocks it: a conflict, as over budget
                if adj[r] & ones:
                    uncovered = budget + 1
                    break
                ones |= 1 << r
                zeros |= adj[r]
                covered |= cover[r]
                z0 |= n0[r]
                z1 |= n1[r]
                z2 |= n2[r]
                propagations += 1
                floor = c + 1
            if uncovered > budget or not floor:
                break
        if uncovered > budget:
            continue
        nodes += 1
        free = full & ~ones & ~zeros
        if not free:
            mask = 0
            for i, ray in enumerate(problem.order):
                mask |= (ones >> i & 1) << ray
            return mask, SolveStats(nodes, propagations)
        bit = free & -free
        r = bit.bit_length() - 1
        stack.append((ones, zeros | bit, covered, z0 | s0[r], z1 | s1[r], z2 | s2[r]))
        if not adj[r] & ones:
            stack.append((ones | bit, zeros | adj[r], covered | cover[r],
                          z0 | n0[r], z1 | n1[r], z2 | n2[r]))
    return None, SolveStats(nodes, propagations)


# --- colorability ----------------------------------------------------------


@dataclass
class ColorabilityResult:
    """SAT with a verified witness, or UNSAT with an exhaustion certificate.

    The certificate is the deterministic search trace summary (node and
    propagation counts for the budget-0 all-contexts subproblem); replaying
    the same subproblem reproduces it exactly.
    """

    satisfiable: bool
    witness: Valuation | None
    nodes: int
    propagations: int


def ks_colorable(cfg: Configuration) -> ColorabilityResult:
    """Complete backtracking test for a two-valued state with exactly one
    value-1 ray per context and exclusivity on every orthogonality edge."""
    if not cfg.contexts:
        raise ValueError("configuration has no contexts")
    problem = _make_problem(cfg, range(len(cfg.contexts)), budget=0)
    mask, stats = _solve(problem)
    if mask is None:
        return ColorabilityResult(False, None, stats.nodes, stats.propagations)
    witness = Valuation.from_mask(mask, cfg.n_rays)
    bad = check_valuation(cfg, witness, ModelKind.COMPLEX_MAXIMAL)
    if bad:
        raise EngineError(f"engine returned an inadmissible witness: {bad[:3]}")
    return ColorabilityResult(True, witness, stats.nodes, stats.propagations)


# --- maximization ----------------------------------------------------------


@dataclass(frozen=True)
class RefutationEntry:
    """One refuted subproblem: the contexts allowed to stay uncovered, the
    node/propagation counts of its exhaustive search, and the result."""

    excluded: tuple[int, ...]
    nodes: int
    propagations: int
    result: str = "UNSAT"


@dataclass
class OptimizationResult:
    best: int
    witness: Valuation
    certificate: list[RefutationEntry]
    colorability: ColorabilityResult  # the budget-0 escalation step
    stats: dict = field(default_factory=dict)


def _refutation_problem(base: _Problem, excluded: tuple[int, ...]) -> _Problem:
    """The budget-0 subproblem that covers every context but ``excluded``;
    ``base`` carries the tables of the configuration."""
    return replace(base, must_cover=set(range(len(base.contexts))).difference(excluded),
                   budget=0)


def maximize_covered_contexts(cfg: Configuration) -> OptimizationResult:
    """Maximum number of contexts with sum exactly 1 over REAL_EMBEDDED-
    admissible valuations, certified.

    Witness side: escalate an uncovered budget b = 0, 1, ... until the
    budgeted search is satisfiable; the first witness covers best = C - u
    contexts (u <= b its uncovered count); budget 0 is ks_colorable.
    Refutation side: best + 1 is refuted by the subproblem decomposition over
    every set of at most C - best - 1 contexts allowed to stay uncovered,
    each an UNSAT budget-0 cover check (for the full configuration and
    best = 128 this is the 1 + 130 decomposition; the empty set is
    ks_colorable's search).  Subproblems are solved one after another, in
    subproblem order; a satisfiable one raises InconsistentCertificates.
    """
    color = ks_colorable(cfg)
    n_ctx = len(cfg.contexts)
    base = _make_problem(cfg, range(n_ctx), budget=0)

    witness = color.witness
    budget = 0
    escalation_nodes = color.nodes
    while witness is None:
        budget += 1
        if budget > n_ctx:
            raise EngineError("budget escalation exceeded the context count")
        mask, stats = _solve(replace(base, budget=budget))
        escalation_nodes += stats.nodes
        if mask is not None:
            witness = Valuation.from_mask(mask, cfg.n_rays)

    best = covered_contexts(cfg, witness)
    bad = check_valuation(cfg, witness, ModelKind.REAL_EMBEDDED)
    if bad:
        raise EngineError(f"engine returned an inadmissible witness: {bad[:3]}")

    # refute best+1 .. n_ctx: every subset of <= n_ctx - best - 1 contexts
    # may be surrendered, the rest must all be covered (best < n_ctx only if
    # colorability is UNSAT, which refutes the empty set)
    max_excluded = n_ctx - best - 1
    certificate: list[RefutationEntry] = []
    if max_excluded >= 0:
        certificate.append(RefutationEntry((), color.nodes, color.propagations))
    for size in range(1, max_excluded + 1):
        for excluded in combinations(range(n_ctx), size):
            mask, stats = _solve(_refutation_problem(base, excluded))
            if mask is not None:
                raise InconsistentCertificates(
                    f"subproblem excluding {excluded} is satisfiable, but the "
                    f"witness search says best = {best}"
                )
            certificate.append(RefutationEntry(excluded, stats.nodes, stats.propagations))

    return OptimizationResult(
        best=best,
        witness=witness,
        certificate=certificate,
        colorability=color,
        stats={
            "witness_budget": budget,
            "escalation_nodes": escalation_nodes,
            "refuted_subproblems": len(certificate),
            "refutation_nodes": sum(e.nodes for e in certificate),
        },
    )


def replay_certificate(cfg: Configuration, result: OptimizationResult) -> bool:
    """Re-run every refuted subproblem in isolation; each must be infeasible
    again with identical node counts (the engine is deterministic)."""
    base = _make_problem(cfg, range(len(cfg.contexts)), budget=0)
    for entry in result.certificate:
        mask, stats = _solve(_refutation_problem(base, entry.excluded))
        if mask is not None or stats.nodes != entry.nodes:
            return False
    return True


def global_sum_bounds(cfg: Configuration, result: OptimizationResult) -> tuple[int, int]:
    """The bounds (0, best) on the total valuation over all contexts.

    0 is always feasible (the all-zero assignment).  Consistency with the
    colorability result stored on ``result`` (its budget-0 escalation step)
    is asserted: an uncolourable configuration must have best < context
    count, a colourable one best = context count; InconsistentCertificates
    otherwise.
    """
    color = result.colorability
    n_ctx = len(cfg.contexts)
    if not color.satisfiable and result.best >= n_ctx:
        raise InconsistentCertificates(
            f"best = {result.best} = context count, but colorability is UNSAT"
        )
    if color.satisfiable and result.best != n_ctx:
        raise InconsistentCertificates(
            f"configuration is colorable but best = {result.best} < {n_ctx}"
        )
    return 0, result.best


def certificate_to_text(cfg: Configuration, result: OptimizationResult) -> str:
    """Certificate file: header with model and counts, the witness's value-1
    ray ids, then one line per refuted subproblem."""
    lines = [
        "# valuation optimization certificate",
        f"model {ModelKind.REAL_EMBEDDED.value}",
        f"rays {cfg.n_rays}",
        f"contexts {len(cfg.contexts)}",
        f"best {result.best}",
        "witness " + " ".join(map(str, result.witness.ones())),
    ]
    for entry in result.certificate:
        excl = ",".join(map(str, entry.excluded)) if entry.excluded else "none"
        lines.append(f"refuted {excl} nodes={entry.nodes} "
                     f"propagations={entry.propagations} {entry.result}")
    return "\n".join(lines) + "\n"
