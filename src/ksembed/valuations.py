"""Two-valued states on the orthogonality hypergraph, with certificates.

Two admissibility models.  COMPLEX_MAXIMAL treats every 3-element context as
maximal: exclusivity on all orthogonality edges and exactly one value-1 ray
per context.  REAL_EMBEDDED keeps exclusivity (faithfully embedded rays stay
orthogonal) but each context spans only a 3-dimensional subspace of R^6, so
its sum relaxes to at most 1.

The solver is an in-repo propagation/backtracking engine (no external
dependencies, so certificates replay from this module alone).  Assignments
are bitmasks over rays, relabelled by branching rank so the branch ray is
the lowest free bit.  Contexts are bitmasks over their indices: the
uncovered must-cover contexts, and one mask per slot of those among them
whose first, second or third ray is not zero (the slot is alive).  A
_Problem holds the AND masks of one configuration, built once by
_build_tables, so setting a ray to 0, or to 1 (which zeroes its neighbors
and covers its contexts), is one AND per context mask, with no loop over the
neighbors.  Each search is
``_solve(problem, cover, budget)``: the contexts to cover are a bitmask over
their indices, all-zero contexts among them count against the uncovered
budget, and once the budget is saturated the third ray of every open
two-zero context is forced to 1, lowest index first.

Every budget-0 search is recorded as one CoverSearch: the contexts it lets
stay uncovered, its node and propagation counts, and its witness (None when
the rest cannot all be covered).  ks_colorable returns the one that excludes
nothing, and a maximization certificate is a list of them.  Maximization
solves the lines that leave at most one context uncovered first: they are
the certificate or hold the witness, so the only other search has budget 2.
A single exclusion follows the colour search exactly until a point that
search can see, so maximization runs the colour search once more, watching
every context, and resumes each line from its fork there instead of from
the root.  replay_certificate searches every line from its root: for the
forked lines it is a second method.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations, islice

from .configuration import Configuration


class SizeMismatch(ValueError):
    """Valuation length differs from the configuration's ray count."""


class InconsistentCertificates(RuntimeError):
    """Optimum and colorability certificates contradict each other."""


class EngineError(RuntimeError):
    """The search engine failed one of its own checks."""


class LayoutTooLarge(ValueError):
    """Every admissible valuation leaves 3 or more contexts uncovered, so the
    refutation layout would hold every set of up to C - best - 1 contexts,
    a family that grows combinatorially with the context count C."""


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


def _check_size(cfg: Configuration, val: Valuation) -> None:
    if len(val.bits) != cfg.n_rays:
        raise SizeMismatch(f"{len(val.bits)} values for {cfg.n_rays} rays")


def check_valuation(cfg: Configuration, val: Valuation, model: ModelKind) -> list[Violation]:
    """All violations of the model's admissibility criteria; empty = admissible."""
    _check_size(cfg, val)
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
    _check_size(cfg, val)
    return sum(1 for ctx in cfg.contexts if sum(val.bits[r] for r in ctx) == 1)


# --- search engine ---------------------------------------------------------


@dataclass(frozen=True)
class _Problem:
    """A configuration as _solve reads it: ray ``order[i]`` is bit i (rays
    relabelled by branching rank), contexts keep their indices.

    ``adj[i]`` holds the neighbors of bit i and ``rays[c]`` the bits of
    context c.  The rest are AND masks over the context bits, which keep the
    contexts a ray's value leaves alive: ``zero[k][r]`` all but those whose
    k-th ray is r (r set to 0), ``one[k][r]`` all but r's contexts and those
    whose k-th ray is a neighbor of r (r set to 1), and ``uncover[r]`` all
    but r's contexts.
    """

    order: tuple[int, ...]
    adj: tuple[int, ...]
    rays: tuple[tuple[int, int, int], ...]
    zero: tuple[tuple[int, ...], ...]
    one: tuple[tuple[int, ...], ...]
    uncover: tuple[int, ...]


def _build_tables(adj, contexts, order) -> _Problem:
    """The _Problem of neighbor bitmasks ``adj`` and ray triples ``contexts``,
    both by ray id, branched in ``order``.  The slot masks (the contexts
    whose k-th ray is r) are built first; one pass over the rays then ORs
    each ray's neighbor slots and complements them at once, so the build
    holds no OR table beside the slot masks, and the problem holds none."""
    rank = [0] * len(adj)
    for i, r in enumerate(order):
        rank[r] = i
    rays = tuple(tuple(rank[r] for r in ctx) for ctx in contexts)
    slot = tuple([0] * len(adj) for _ in range(3))
    for c, ctx in enumerate(rays):
        for k, r in enumerate(ctx):
            slot[k][r] |= 1 << c
    s0, s1, s2 = slot
    full = (1 << len(rays)) - 1
    # full itself where r is in no k-th slot: one shared int, not a copy
    zero = tuple(tuple(full ^ m if m else full for m in sk) for sk in slot)
    radj, uncover, one0, one1, one2 = [], [], [], [], []
    for i, r in enumerate(order):
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
        cover = s0[i] | s1[i] | s2[i]
        radj.append(out)
        uncover.append(full ^ cover)
        one0.append(full ^ (a | cover))
        one1.append(full ^ (b | cover))
        one2.append(full ^ (c | cover))
    return _Problem(
        order=tuple(order),
        adj=tuple(radj),
        rays=rays,
        zero=zero,
        one=(tuple(one0), tuple(one1), tuple(one2)),
        uncover=tuple(uncover),
    )


def _make_problem(cfg: Configuration) -> _Problem:
    n = cfg.n_rays
    adj = [0] * n
    for i, j in cfg.edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    # descending degree, stable by id: propagation fires earlier, determinism kept
    order = sorted(range(n), key=lambda i: (-adj[i].bit_count(), i))
    return _build_tables(adj, cfg.contexts, order)


def _fork(problem: _Problem, stack, state, forced, floor, nodes, propagations) -> tuple:
    """The start of a line that leaves the colour search at ``state``, where
    _solve resumes it: (stack, floor, nodes, propagations).  The stack is
    copied (its states are shared tuples), with ``state`` on top and the
    rays forced so far at this node applied to its ones and zeros, which no
    sweep reads; the top state enters a forcing sweep at ``floor``, and the
    counts are those so far.  The context masks are the colour search's:
    _solve ANDs its cover into them, which clears the excluded context's
    bit."""
    ones, zeros, *masks = state
    for r in forced:
        ones |= 1 << r
        zeros |= problem.adj[r]
    return (*stack, (ones, zeros, *masks)), floor, nodes, propagations


def _solve(problem: _Problem, cover: int, budget: int, start: tuple | None = None,
           forks: dict | None = None) -> tuple[int | None, int, int]:
    """DFS with unit propagation.  Returns (ones mask by ray id | None,
    nodes, propagations).
    Iterative, so its depth is not bounded by the recursion limit.

    ``cover`` is the mask of must-cover contexts: bit c for context c.
    Value order is 1 before 0.  The only conflict is more all-zero
    must-cover contexts than ``budget``; at it, every open two-zero
    must-cover context forces its third ray to 1.

    A state is (ones, zeros, unc, a0, a1, a2): ones and zeros over rays in
    rank order, the rest over context indices.  unc holds the uncovered
    must-cover contexts (no ray set to 1; contexts outside ``cover`` never
    enter it), and ak those of them whose k-th ray is not zero, so
    ak is a subset of unc, unc ^ (a0 | a1 | a2) is all-zero and
    a0 ^ a1 ^ a2 ^ (a0 & a1 & a2) exactly two-zero.  Setting r to 0 ANDs
    ``zero[k][r]`` into ak; setting it to 1 ORs adj[r] into zeros and ANDs
    ``uncover[r]`` into unc and ``one[k][r]`` into ak, so no free ray, nor
    the third ray of an open two-zero context, has a neighbor set to 1.  The
    branch ray is the lowest free bit.  The forcing sweep takes the lowest
    open two-zero context at or above a floor that moves past each forced
    context: the order of a scan of the must-cover contexts by index that
    forces as it goes (a force that opens an earlier context waits for the
    next sweep), so node and propagation counts, and every certificate,
    follow that scan.
    A sweep goes on past the conflict it meets, and its forces count; it
    updates only unc and the ak, and its forced rays reach ones and zeros
    only if the state survives.

    The search begins at ``start`` (see _fork), the root by default: the
    root state, which has no all-zero and no open two-zero context, entering
    its sweep at floor 0.  The top state of a start enters its sweep at the
    start's floor with no count of the all-zero contexts first: the count
    that took the colour search into that sweep holds for the line too.

    With ``forks``, a budget-0 search watches every context of ``cover``.
    The line that excludes c is this search with bit c cleared from every
    context mask until the first of two events: (a) a sweep reaches c, and
    the line goes on with the same sweep at floor c + 1 without forcing c;
    (b) c is the only all-zero context, and the line sweeps from floor 0
    where this search prunes.  At that event ``forks[c]`` gets the line's
    start and c leaves the watch mask; a line that never leaves has this
    search's record.
    """
    adj, rays, uncover = problem.adj, problem.rays, problem.uncover
    z0, z1, z2 = problem.zero
    o0, o1, o2 = problem.one
    full = (1 << len(adj)) - 1
    if start is None:
        start = ((0, 0, cover, cover, cover, cover),), 0, 0, 0
    states, entry, nodes, propagations = start
    watch = 0 if forks is None else cover
    # depth-first over an explicit stack of open states: the 0-branch is
    # pushed under the 1-branch, so the 1-subtree is exhausted first, as in
    # the recursive formulation, and the counts match it
    stack = [(ones, zeros, unc & cover, a0 & cover, a1 & cover, a2 & cover)
             for ones, zeros, unc, a0, a1, a2 in states]
    forced = []  # one list, reused: a new one per state would feed the cyclic GC
    while stack:
        ones, zeros, unc, a0, a1, a2 = stack.pop()
        forced.clear()
        while True:  # propagate
            if entry is None:
                zero = unc ^ (a0 | a1 | a2)
                uncovered = zero.bit_count()
                if watch and uncovered == 1 and watch & zero:  # event (b)
                    forks[zero.bit_length() - 1] = _fork(
                        problem, stack, (ones, zeros, unc, a0, a1, a2), forced,
                        0, nodes, propagations)
                    watch ^= zero
                if uncovered != budget:  # over it a conflict, under it no force
                    break
                floor = 0
            else:  # the start's state, at its entry floor
                uncovered, floor, entry = budget, entry, None
            # one sweep: contexts that open below the floor wait for the next
            while True:
                open2 = (a0 ^ a1 ^ a2 ^ (a0 & a1 & a2)) >> floor
                if not open2:
                    break
                c = floor + (open2 & -open2).bit_length() - 1
                if watch and watch >> c & 1:  # event (a)
                    forks[c] = _fork(problem, stack, (ones, zeros, unc, a0, a1, a2),
                                     forced, c + 1, nodes, propagations)
                    watch ^= 1 << c
                i, j, k = rays[c]
                r = i if (a0 >> c) & 1 else j if (a1 >> c) & 1 else k
                forced.append(r)
                unc &= uncover[r]
                a0 &= o0[r]
                a1 &= o1[r]
                a2 &= o2[r]
                propagations += 1
                floor = c + 1
            if not floor:
                break
        if uncovered > budget:
            continue
        for r in forced:
            ones |= 1 << r
            zeros |= adj[r]
        nodes += 1
        free = full & ~ones & ~zeros
        if not free:
            mask = 0
            for i, ray in enumerate(problem.order):
                mask |= (ones >> i & 1) << ray
            return mask, nodes, propagations
        bit = free & -free
        r = bit.bit_length() - 1
        stack.append((ones, zeros | bit, unc, a0 & z0[r], a1 & z1[r], a2 & z2[r]))
        stack.append((ones | bit, zeros | adj[r], unc & uncover[r],
                      a0 & o0[r], a1 & o1[r], a2 & o2[r]))
    return None, nodes, propagations


# --- cover searches --------------------------------------------------------


@dataclass(frozen=True)
class CoverSearch:
    """One budget-0 search that covers every context but ``excluded``: the
    node and propagation counts of its exhaustive, deterministic search, and
    the valuation it found, or None if there is none (the line refutes).
    Replaying the same search reproduces the record exactly."""

    excluded: tuple[int, ...]
    nodes: int
    propagations: int
    witness: Valuation | None = None

    @property
    def satisfiable(self) -> bool:
        return self.witness is not None

    @property
    def result(self) -> str:
        return "SAT" if self.satisfiable else "UNSAT"


@dataclass
class OptimizationResult:
    best: int
    witness: Valuation
    certificate: list[CoverSearch]
    colorability: CoverSearch  # the budget-0 escalation step
    stats: dict = field(default_factory=dict)


def _refutations(problem: _Problem, n_ctx: int, best: int, first=None, forks=None):
    """The refutation of best + 1 .. n_ctx, in subproblem order: one
    CoverSearch per set of at most n_ctx - best - 1 contexts allowed to stay
    uncovered, by size, then lexicographically, each a budget-0 cover check
    of the rest, whose cover mask is every context's bit but the excluded.
    ``first`` is yielded for the empty set in place of solving it again.

    Without ``forks`` every line is searched from its root: replay's way,
    the cross-check of the forked lines.  ``forks`` holds the starts that
    the colour search ``first`` left, watching every context: a single
    exclusion with a start resumes from it, and the start is dropped; one
    without never left the colour search and has ``first``'s record."""
    full = (1 << n_ctx) - 1
    for size in range(n_ctx - best):
        for excluded in combinations(range(n_ctx), size):
            if first is not None and not excluded:
                yield first
                continue
            start = None
            if forks is not None and size == 1:
                start = forks.pop(excluded[0], None)
                if start is None:
                    yield CoverSearch(excluded, first.nodes, first.propagations, first.witness)
                    continue
            mask, nodes, propagations = _solve(
                problem, full ^ sum(1 << c for c in excluded), 0, start)
            witness = None if mask is None else Valuation.from_mask(mask, len(problem.adj))
            yield CoverSearch(excluded, nodes, propagations, witness)


def ks_colorable(cfg: Configuration) -> CoverSearch:
    """Complete backtracking test for a two-valued state with exactly one
    value-1 ray per context and exclusivity on every orthogonality edge."""
    if not cfg.contexts:
        raise ValueError("configuration has no contexts")
    n_ctx = len(cfg.contexts)
    # the layout that refutes covering all n_ctx contexts is the empty exclusion alone
    color, = _refutations(_make_problem(cfg), n_ctx, n_ctx - 1)
    if color.satisfiable:
        bad = check_valuation(cfg, color.witness, ModelKind.COMPLEX_MAXIMAL)
        if bad:
            raise EngineError(f"engine returned an inadmissible witness: {bad[:3]}")
    return color


# --- maximization ----------------------------------------------------------


def maximize_covered_contexts(cfg: Configuration) -> OptimizationResult:
    """Maximum number of contexts with sum exactly 1 over REAL_EMBEDDED-
    admissible valuations, certified; C is the context count.

    A colouring from ks_colorable covers best = C, with an empty certificate.
    Otherwise the 1 + C lines of _refutations for best = C - 2 are solved in
    subproblem order, ks_colorable's search first: budget 1 is satisfiable
    iff one of them is.  The colour search runs once more, watching every
    context, and each single exclusion resumes from where it first leaves
    that search (see _solve) instead of re-running their shared prefix;
    replay_certificate searches every line from its root, the second method
    for the forked lines.  The first satisfiable line, a single exclusion, is
    the witness of best = C - 1, which ks_colorable's line alone refutes.
    If all 1 + C are UNSAT they refute C - 1 and C, and one budget-2 search
    finds the witness of best = C - 2.  If it finds none, LayoutTooLarge:
    every admissible valuation leaves 3 or more contexts uncovered, and the
    layout would hold every set of up to C - best - 1 contexts.  A witness
    that covers other than C - budget contexts raises
    InconsistentCertificates.  ``stats["escalation_nodes"]`` counts
    ks_colorable's nodes and those of every search outside the certificate;
    ``stats["forked_lines"]`` the lines that resumed from a fork, and
    ``stats["inherited_propagations"]`` the propagations they took from the
    colour search instead of running them again.
    """
    # each public entry point builds its own problem (about 0.6 ms at 165 rays)
    # rather than sharing one through a cache
    color = ks_colorable(cfg)
    n_ctx = len(cfg.contexts)
    problem = _make_problem(cfg)

    budget, witness, source = 0, color.witness, "the colouring"
    lines: list[CoverSearch] = []
    forked_lines = inherited = 0
    if witness is None:
        budget = 1
        forks: dict[int, tuple] = {}
        if _solve(problem, (1 << n_ctx) - 1, 0, forks=forks) != (
                None, color.nodes, color.propagations):
            raise EngineError("the watched colour search differs from ks_colorable's")
        # _refutations drops each start as its line resumes
        forked_lines, inherited = len(forks), sum(start[3] for start in forks.values())
        for entry in _refutations(problem, n_ctx, n_ctx - 2, color, forks):
            lines.append(entry)
            if entry.satisfiable:
                witness, source = entry.witness, f"subproblem excluding {entry.excluded}"
                break
        forked_lines -= len(forks)
        inherited -= sum(start[3] for start in forks.values())
    # a budget-1 witness leaves the colour line the only refutation
    certificate = lines if witness is None else lines[:1]
    escalation_nodes = color.nodes + sum(e.nodes for e in lines[len(certificate):])
    if witness is None:
        if n_ctx < 2:
            raise EngineError("budget escalation exceeded the context count")
        budget = 2
        mask, nodes, _ = _solve(problem, (1 << n_ctx) - 1, budget)
        escalation_nodes += nodes
        if mask is None:
            raise LayoutTooLarge(
                f"budgets 0-2 are unsatisfiable: every admissible valuation leaves "
                f"3 or more of the {n_ctx} contexts uncovered, and the refutation "
                f"layout for that is not built")
        witness, source = Valuation.from_mask(mask, cfg.n_rays), "the budget-2 search"

    bad = check_valuation(cfg, witness, ModelKind.REAL_EMBEDDED)
    if bad:
        raise EngineError(f"engine returned an inadmissible witness: {bad[:3]}")
    best = covered_contexts(cfg, witness)
    if best != n_ctx - budget:
        raise InconsistentCertificates(
            f"{source} has a witness covering {best} contexts, not {n_ctx - budget}")

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
            "forked_lines": forked_lines,
            "inherited_propagations": inherited,
        },
    )


def replay_certificate(cfg: Configuration, result: OptimizationResult) -> bool:
    """The witness must be REAL_EMBEDDED-admissible and cover exactly
    ``result.best`` contexts, and the certificate must be exactly the layout
    that _refutations derives from ``result.best``, each line UNSAT again
    with identical node and propagation counts (the engine is deterministic).
    At most one line more than the certificate holds is solved.  Every line
    is searched from its root, with no fork: for the lines that maximization
    resumed from the colour search, replay is a second method."""
    if (check_valuation(cfg, result.witness, ModelKind.REAL_EMBEDDED)
            or covered_contexts(cfg, result.witness) != result.best):
        return False
    refuted = list(islice(_refutations(_make_problem(cfg), len(cfg.contexts), result.best),
                          len(result.certificate) + 1))
    return refuted == result.certificate and not any(e.satisfiable for e in refuted)


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
