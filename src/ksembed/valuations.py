"""Two-valued states on the orthogonality hypergraph, with certificates.

Two admissibility models.  COMPLEX_MAXIMAL treats every 3-element context as
maximal: exclusivity on all orthogonality edges and exactly one value-1 ray
per context.  REAL_EMBEDDED keeps exclusivity (faithfully embedded rays stay
orthogonal) but each context spans only a 3-dimensional subspace of R^6, so
its sum relaxes to at most 1.

The solver is an in-repo propagation/backtracking engine (no external
dependencies, so certificates replay from this module alone).  Assignments
are bitmasks; propagation alternates bulk neighbor-zeroing for value-1
assignments with a full scan of the must-cover contexts that counts
all-zero contexts against an uncovered budget and, once the budget is
saturated, forces the third ray of every two-zero context to 1.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations

from .configuration import Configuration


class SizeMismatch(ValueError):
    """Valuation length differs from the configuration's ray count."""


class InconsistentCertificates(RuntimeError):
    """Optimum and colorability certificates contradict each other."""


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
class _Problem:
    """Plain solver payload: picklable for the parallel refutation path."""

    n: int
    adj: tuple[int, ...]              # neighbor bitmask per ray
    contexts: tuple[tuple[int, int, int], ...]
    must_cover: tuple[int, ...]       # context indices forced to sum to 1
    budget: int                       # must-cover contexts allowed to go all-zero
    order: tuple[int, ...]            # branching order


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
        must_cover=tuple(sorted(must_cover)),
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
    """
    adj = problem.adj
    must = [problem.contexts[ci] for ci in problem.must_cover]
    budget = problem.budget
    order = problem.order
    full = (1 << problem.n) - 1
    stats = SolveStats()

    def assign_one(ones: int, zeros: int, r: int) -> tuple[int, int] | None:
        bit = 1 << r
        if zeros & bit or adj[r] & ones:
            return None
        return ones | bit, zeros | adj[r]

    def propagate(ones: int, zeros: int) -> tuple[int, int, int] | None:
        while True:
            uncovered = 0
            for i, j, k in must:
                if ((ones >> i) | (ones >> j) | (ones >> k)) & 1:
                    continue
                zc = ((zeros >> i) & 1) + ((zeros >> j) & 1) + ((zeros >> k) & 1)
                if zc == 3:
                    uncovered += 1
                    if uncovered > budget:
                        return None
            if uncovered < budget:
                return ones, zeros, uncovered
            forced = False
            for i, j, k in must:
                if ((ones >> i) | (ones >> j) | (ones >> k)) & 1:
                    continue
                zc = ((zeros >> i) & 1) + ((zeros >> j) & 1) + ((zeros >> k) & 1)
                if zc == 2:
                    third = i if not (zeros >> i) & 1 else (j if not (zeros >> j) & 1 else k)
                    st = assign_one(ones, zeros, third)
                    if st is None:
                        return None
                    ones, zeros = st
                    stats.propagations += 1
                    forced = True
            if not forced:
                return ones, zeros, uncovered

    # depth-first over an explicit stack of open (ones, zeros) states: the
    # 0-branch is pushed under the 1-branch, so the 1-subtree is exhausted
    # first, as in the recursive formulation, and the counts match it
    stack = [(0, 0)]
    while stack:
        st = propagate(*stack.pop())
        if st is None:
            continue
        ones, zeros, _ = st
        stats.nodes += 1
        free = full & ~ones & ~zeros
        if not free:
            return ones, stats
        for r in order:
            if (free >> r) & 1:
                break
        stack.append((ones, zeros | (1 << r)))
        st1 = assign_one(ones, zeros, r)
        if st1 is not None:
            stack.append(st1)
    return None, stats


def _solve_refutation(args: tuple[_Problem, tuple[int, ...]]):
    # module-level worker for the process pool
    problem, excluded = args
    mask, stats = _solve(problem)
    return excluded, mask, stats.nodes, stats.propagations


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
        raise RuntimeError(f"engine returned an inadmissible witness: {bad[:3]}")
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


def _must_cover(n_ctx: int, excluded: tuple[int, ...]) -> list[int]:
    """The context indices of a refutation subproblem: all but ``excluded``."""
    skip = set(excluded)
    return [c for c in range(n_ctx) if c not in skip]


def maximize_covered_contexts(cfg: Configuration, threads: int = 1) -> OptimizationResult:
    """Maximum number of contexts with sum exactly 1 over REAL_EMBEDDED-
    admissible valuations, certified.

    Witness side: escalate an uncovered budget b = 0, 1, ... until the
    budgeted search is satisfiable; the first witness covers best = C - u
    contexts (u <= b its uncovered count); budget 0 is ks_colorable.
    Refutation side: best + 1 is refuted by the subproblem decomposition over
    every set of at most C - best - 1 contexts allowed to stay uncovered,
    each an UNSAT budget-0 cover check (for the full configuration and
    best = 128 this is the 1 + 130 decomposition; the empty set is
    ks_colorable's search).  Subproblems are independent; with threads > 1
    they run in a process pool and are aggregated in subproblem order.
    """
    color = ks_colorable(cfg)
    n_ctx = len(cfg.contexts)
    all_ctx = range(n_ctx)

    witness = color.witness
    budget = 0
    escalation_nodes = color.nodes
    while witness is None:
        budget += 1
        if budget > n_ctx:
            raise RuntimeError("budget escalation exceeded the context count")
        mask, stats = _solve(_make_problem(cfg, all_ctx, budget))
        escalation_nodes += stats.nodes
        if mask is not None:
            witness = Valuation.from_mask(mask, cfg.n_rays)

    best = covered_contexts(cfg, witness)
    bad = check_valuation(cfg, witness, ModelKind.REAL_EMBEDDED)
    if bad:
        raise RuntimeError(f"engine returned an inadmissible witness: {bad[:3]}")

    # refute best+1 .. n_ctx: every subset of <= n_ctx - best - 1 contexts
    # may be surrendered, the rest must all be covered (best < n_ctx only if
    # colorability is UNSAT, which refutes the empty set)
    max_excluded = n_ctx - best - 1
    certificate: list[RefutationEntry] = []
    if max_excluded >= 0:
        certificate.append(RefutationEntry((), color.nodes, color.propagations))
    subproblems: list[tuple[int, ...]] = []
    for size in range(1, max_excluded + 1):
        subproblems.extend(combinations(range(n_ctx), size))

    args = [(_make_problem(cfg, _must_cover(n_ctx, excl), 0), excl) for excl in subproblems]
    if threads > 1 and len(args) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_solve_refutation, args, chunksize=8))
    else:
        results = [_solve_refutation(a) for a in args]
    for excluded, mask, nodes, props in results:
        if mask is not None:
            raise InconsistentCertificates(
                f"subproblem excluding {excluded} is satisfiable, but the "
                f"witness search says best = {best}"
            )
        certificate.append(RefutationEntry(excluded, nodes, props))

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
    for entry in result.certificate:
        must = _must_cover(len(cfg.contexts), entry.excluded)
        mask, stats = _solve(_make_problem(cfg, must, 0))
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
