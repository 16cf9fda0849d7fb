"""Reference versions of the batched and pruned library paths.

These are the straightforward loops the library used before its hot paths
were batched and its exhaustive checkers pruned: per-bit scheme and
set-family draws,
the graph generator on the stdlib Random.shuffle, random-MIS answers
sorted by hash ranks read word by word, the clique adversary that checks
its own candidate answer, decoding, one policy call and one MIS check per
query, the 2^|Q| subset scan for maximal independent sets,
the frozenset cover-free checker, the `x in s` scans of the dual family and the CFF
scheme's queries, and the separate plain and blocked hidden-clique samplers,
enumerators and count chain. Property tests require the
library to agree with them bit for bit on every input. It also holds the
small graph helpers that only the tests use.
"""

import hashlib
import itertools
import math
import random
from fractions import Fraction

from misrecon.coverfree import CffConstructionError, CoverViolation, SetFamily
from misrecon.graphs import (
    ENUM_CAP,
    AdversarialFamilyDesc,
    Graph,
    enumerate_bounded_degree_graphs,
)
from misrecon.lowerbounds import _chain_checks
from misrecon.oracle import OracleError, Transcript
from misrecon.reports import ExperimentReport
from misrecon.schemes import QueryScheme, SchemeViolation
from misrecon.util import CapExceededError, derive_seed, iter_bits, mask_from_members


def random_queries(n: int, t: int, p: float, seed: int) -> QueryScheme:
    """One rng.random() < p draw per (query, vertex), in row order."""
    rng = random.Random(derive_seed(seed))
    queries = []
    for _ in range(t):
        mask = 0
        for v in range(n):
            if rng.random() < p:
                mask |= 1 << v
        queries.append(mask)
    return QueryScheme(n, tuple(queries))


def random_set_family(
    n: int, t: int, density: float, seed: int = 0, max_rounds: int = 100
) -> SetFamily:
    """One rng.random() < density draw per (set, element); each round redraws
    the later copies of equal sets, in index order, until all are distinct."""
    rng = random.Random(derive_seed(seed))

    def draw() -> frozenset[int]:
        return frozenset(x for x in range(t) if rng.random() < density)

    sets = [draw() for _ in range(n)]
    for _ in range(max_rounds):
        seen = set()
        dup = []
        for i, s in enumerate(sets):
            if s in seen:
                dup.append(i)
            else:
                seen.add(s)
        if not dup:
            return SetFamily.from_sets(t, sets)
        for i in dup:
            sets[i] = draw()
    raise CffConstructionError(
        f"could not draw {n} distinct sets within {max_rounds} rounds"
    )


def gen_bounded_degree(n: int, delta: int, density: float, seed: int) -> Graph:
    """Candidate pairs in Random.shuffle order, each kept with one
    rng.random() < density draw while both ends have degree below delta."""
    rng = random.Random(seed)
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(candidates)
    deg = [0] * n
    edges = []
    for u, v in candidates:
        if deg[u] < delta and deg[v] < delta and rng.random() < density:
            deg[u] += 1
            deg[v] += 1
            edges.append((u, v))
    return Graph(n, edges)


def is_mis(g: Graph, q: int, i: int) -> bool:
    """Per-vertex definition: no member has a neighbour in i, and every other
    vertex of q has one (q and i are masks)."""
    for v in iter_bits(i):
        if g.adjacency_masks[v] & i:
            return False
    for v in iter_bits(q & ~i):
        if not g.adjacency_masks[v] & i:
            return False
    return True


def greedy_mis(g: Graph, q: int, order) -> int:
    """Scan order, adding each vertex of q that has no chosen neighbour."""
    mis = 0
    for v in order:
        if q >> v & 1 and not g.adjacency_masks[v] & mis:
            mis |= 1 << v
    return mis


def random_mis(g: Graph, q: int, seed: int, index: int) -> int:
    """Greedy over q's members sorted by (rank, vertex), member t's rank
    being the t-th 8-byte word of SHAKE-128 over (seed, index) as two
    8-byte little-endian fields, each read by itself."""
    members = list(iter_bits(q))
    key = (seed % 2**64).to_bytes(8, "little") + (index % 2**64).to_bytes(8, "little")
    stream = hashlib.shake_128(key).digest(8 * len(members))
    ranks = [int.from_bytes(stream[8 * t : 8 * t + 8], "little") for t in range(len(members))]
    return greedy_mis(g, q, [v for _, v in sorted(zip(ranks, members))])


def greedy_lex(g: Graph, q: int) -> int:
    return greedy_mis(g, q, range(g.n))


class RandomMisPolicy:
    """Hash ranks keyed by (seed, index) per query, every query ranked,
    edgeless or not."""

    def __init__(self, seed: int):
        self.seed = seed

    def answer(self, g: Graph, q: int, index: int) -> int:
        return random_mis(g, q, self.seed, index)


class AdversarialCliquePolicy:
    """The clique adversary that first tests its own candidate Q \\ U with
    is_mis, and refuses a graph outside its family when no answer fits."""

    index_free = True

    def __init__(self, desc: AdversarialFamilyDesc):
        self.desc = desc

    def answer(self, g: Graph, q: int, index: int) -> int:
        if self.desc.n != g.n:
            raise ValueError("family descriptor does not match the graph's vertices")
        outside = q & ~self.desc.clique
        if is_mis(g, q, outside):
            return outside
        for u in iter_bits(q & self.desc.clique):
            if not g.adjacency_masks[u] & outside:
                return outside | 1 << u
        raise OracleError("graph is not a member of the described clique family")


def run_scheme(g: Graph, scheme: QueryScheme, policy) -> Transcript:
    """Ask the policy about every query in order and check every answer."""
    entries = []
    for index, q in enumerate(scheme.masks):
        a = policy.answer(g, q, index)
        if not is_mis(g, q, a):
            raise OracleError(f"policy answer for query {index} is not an MIS")
        entries.append((q, a))
    return Transcript(g.n, tuple(entries))


def decode(n: int, transcript: Transcript):
    """(edges, unknown pairs) by the O(n^2) pair loop over OR-ed masks."""
    co_queried = [0] * n
    co_answered = [0] * n
    for q, a in transcript.masks:
        for v in iter_bits(q):
            co_queried[v] |= q
        for v in iter_bits(a):
            co_answered[v] |= a
    edges = []
    unknown = []
    for u in range(n):
        for v in range(u + 1, n):
            if co_answered[u] >> v & 1:
                continue
            if co_queried[u] >> v & 1:
                edges.append((u, v))
            else:
                unknown.append((u, v))
    return tuple(edges), tuple(unknown)


def mis_family(adj, qmask: int) -> frozenset:
    """Every subset of q that is independent and maximal, as masks."""
    members = list(iter_bits(qmask))
    found = []
    for bits in range(1 << len(members)):
        m = 0
        for j, v in enumerate(members):
            if bits >> j & 1:
                m |= 1 << v
        independent = True
        for v in iter_bits(m):
            if adj[v] & m:
                independent = False
                break
        if not independent:
            continue
        maximal = True
        for v in iter_bits(qmask & ~m):
            if not adj[v] & m:
                maximal = False
                break
        if maximal:
            found.append(m)
    return frozenset(found)


def max_degree(g: Graph) -> int:
    """Maximum over all vertices of the neighbour count, each counted pair
    by pair with has_edge."""
    return max(
        (sum(g.has_edge(u, v) for v in range(g.n)) for u in range(g.n)), default=0
    )


def induced_mis_context(g: Graph, q: int) -> dict[int, int]:
    """Adjacency of the subgraph induced by q, keyed by original vertex index.

    Values are neighbour bitmasks restricted to q; no relabelling happens, so
    independent sets computed on this view are reported in original indices.
    """
    if q < 0 or q >> g.n:
        raise ValueError("query universe does not match graph")
    return {v: g.adjacency_masks[v] & q for v in iter_bits(q)}


def common_mis(g: Graph, h: Graph, q: int) -> int | None:
    """A set that is an MIS of both induced subgraphs, or None.

    Independent re-derivation via is_mis, used to audit witnesses.
    """
    for m in mis_family(g.adjacency_masks, q):
        if is_mis(h, q, m):
            return m
    return None


def is_query_scheme(scheme: QueryScheme, delta: int):
    """True, or the first graph pair sharing an MIS on every query.

    Every (graph, query) MIS family comes from the subset scan; pairs are
    visited in enumeration order.
    """
    graphs = enumerate_bounded_degree_graphs(scheme.n, delta)
    signatures = [
        [mis_family(g.adjacency_masks, q) for q in scheme.masks]
        for g in graphs
    ]
    for i, j in itertools.combinations(range(len(graphs)), 2):
        if all(not a.isdisjoint(b) for a, b in zip(signatures[i], signatures[j])):
            return SchemeViolation(graphs[i], graphs[j])
    return True


def is_cover_free(f: SetFamily, w: int, r: int):
    """True, or the first CoverViolation, by frozenset intersections and unions.

    Takes r already clamped to at most n - w.
    """
    indices = range(f.n)
    for a_idx in itertools.combinations(indices, w):
        inter = frozenset.intersection(*(f.sets[i] for i in a_idx))
        rest = [i for i in indices if i not in a_idx]
        if r == 0:
            if not inter:
                return CoverViolation(a_idx, (), ())
            continue
        if not inter:
            return CoverViolation(a_idx, tuple(rest[:r]), ())
        for b_idx in itertools.combinations(rest, r):
            union = frozenset.union(*(f.sets[i] for i in b_idx))
            if inter <= union:
                return CoverViolation(a_idx, b_idx, tuple(sorted(inter)))
    return True


def dual(f: SetFamily) -> SetFamily:
    """One `x in s` scan over the sets per ground element."""
    sets = tuple(
        frozenset(i for i, s in enumerate(f.sets) if x in s)
        for x in range(f.ground_size)
    )
    return SetFamily.from_sets(f.n, sets)


def cff_queries(n: int, family: SetFamily) -> tuple[int, ...]:
    """The CFF scheme's query masks, query_x = {v : x in R_v}, by `x in s` scans."""
    return tuple(
        mask_from_members(n, (v for v, s in enumerate(family.sets) if x in s))
        for x in range(family.ground_size)
    )


def _clique_edges(members):
    return [(u, v) for i, u in enumerate(members) for v in members[i + 1 :]]


def sample_clique_family(n: int, delta: int, seed: int):
    """U = {0..ceil(delta/2)-1}; each u draws rng.sample(range(|U|, n), slots)."""
    if delta < 1:
        raise ValueError("delta must be >= 1")
    u_size = math.ceil(delta / 2)
    slots = delta - (u_size - 1)
    if n - u_size < slots:
        raise ValueError("not enough outside vertices for neighbour choices")
    rng = random.Random(seed)
    outside = range(u_size, n)
    edges = _clique_edges(tuple(range(u_size)))
    for u in range(u_size):
        edges.extend((u, v) for v in rng.sample(outside, slots))
    desc = AdversarialFamilyDesc(
        n=n,
        delta=delta,
        clique=mask_from_members(n, range(u_size)),
    )
    return Graph(n, edges), desc


def sample_blocked_clique_family(n: int, delta: int, seed: int):
    """(U, W) from one rng.sample(range(n), |U|+|W|), then each u in U draws
    rng.sample(rest, slots) from the remaining vertices."""
    if delta < 3:
        raise ValueError("delta must be >= 3 so the forced block is nonempty")
    u_size = math.ceil(delta / 3)
    w_size = delta // 3
    slots = delta - (u_size - 1) - w_size
    if n - u_size - w_size < slots:
        raise ValueError("not enough outside vertices for neighbour choices")
    rng = random.Random(seed)
    picked = rng.sample(range(n), u_size + w_size)
    clique = tuple(sorted(picked[:u_size]))
    block = tuple(sorted(picked[u_size:]))
    rest = [v for v in range(n) if v not in set(picked)]
    edges = _clique_edges(clique)
    edges.extend((u, w) for u in clique for w in block)
    for u in clique:
        edges.extend((u, v) for v in rng.sample(rest, slots))
    desc = AdversarialFamilyDesc(
        n=n,
        delta=delta,
        clique=mask_from_members(n, clique),
        forced_block=mask_from_members(n, block),
    )
    return Graph(n, edges), desc


def clique_family_size(n: int, delta: int) -> int:
    u_size = math.ceil(delta / 2)
    slots = delta - (u_size - 1)
    return math.comb(n - u_size, slots) ** u_size


def enumerate_clique_family(n: int, delta: int, cap: int = ENUM_CAP):
    """Slot choices of the plain family in itertools.product order."""
    if delta < 1:
        raise ValueError("delta must be >= 1")
    u_size = math.ceil(delta / 2)
    slots = delta - (u_size - 1)
    if n - u_size < slots:
        raise ValueError("not enough outside vertices for neighbour choices")
    size = clique_family_size(n, delta)
    if size > cap:
        raise CapExceededError(f"family size {size} exceeds cap {cap}")
    base = _clique_edges(tuple(range(u_size)))
    outside = range(u_size, n)
    per_vertex = list(itertools.combinations(outside, slots))
    for choices in itertools.product(per_vertex, repeat=u_size):
        edges = list(base)
        for u, chosen in enumerate(choices):
            edges.extend((u, v) for v in chosen)
        yield Graph(n, edges)


def enumerate_blocked_clique_family(
    n: int,
    delta: int,
    clique: int,
    forced_block: int,
    cap: int = ENUM_CAP,
):
    """Slot choices of the forced-block family for a fixed (U, W) of masks."""
    if delta < 3:
        raise ValueError("delta must be >= 3")
    u_members = tuple(iter_bits(clique))
    w_members = tuple(iter_bits(forced_block))
    slots = delta - (len(u_members) - 1) - len(w_members)
    rest = [
        v for v in range(n) if not clique >> v & 1 and not forced_block >> v & 1
    ]
    if len(rest) < slots:
        raise ValueError("not enough outside vertices for neighbour choices")
    size = math.comb(len(rest), slots) ** len(u_members)
    if size > cap:
        raise CapExceededError(f"family size {size} exceeds cap {cap}")
    base = _clique_edges(u_members)
    base.extend((u, w) for u in u_members for w in w_members)
    per_vertex = list(itertools.combinations(rest, slots))
    for choices in itertools.product(per_vertex, repeat=len(u_members)):
        edges = list(base)
        for u, chosen in zip(u_members, choices):
            edges.extend((u, v) for v in chosen)
        yield Graph(n, edges)


def family_count_check(n: int, delta: int, variant: str = "clique") -> ExperimentReport:
    """The count chain with the family shape decided per variant."""
    if variant not in ("clique", "clique-block"):
        raise ValueError("variant must be 'clique' or 'clique-block'")
    if variant == "clique":
        if delta < 1:
            raise ValueError("delta must be >= 1")
        u_size = math.ceil(delta / 2)
        w_size = 0
        power = 4
    else:
        if delta < 3:
            raise ValueError("delta must be >= 3 for the clique-block variant")
        u_size = math.ceil(delta / 3)
        w_size = delta // 3
        power = 9
    slots = delta - (u_size - 1) - w_size
    if n - u_size - w_size < slots:
        raise ValueError("n too small for the neighbour choices")
    exact = math.comb(n - u_size - w_size, slots) ** u_size
    binom_bound = math.comb(n - delta, u_size) ** u_size
    ratio_bound = Fraction(n - delta, u_size) ** (u_size * u_size)
    final_display = ((n - delta) / delta) ** (delta * delta / power)
    chain_pow = [
        ("exact_count", exact, Fraction(exact) ** power),
        ("binomial_bound", binom_bound, Fraction(binom_bound) ** power),
        ("ratio_bound", float(ratio_bound), ratio_bound**power),
        ("final_bound", final_display, Fraction(n - delta, delta) ** (delta * delta)),
    ]
    checks = _chain_checks(chain_pow)
    return ExperimentReport(
        name="family-count-chain",
        parameters={
            "n": n, "delta": delta, "variant": variant,
            "clique_size": u_size, "block_size": w_size,
            "free_slots": slots,
        },
        measured={"exact_count": exact},
        bounds={
            "binomial_bound": binom_bound,
            "ratio_bound": float(ratio_bound),
            "final_bound": final_display,
            "final_bound_exponent": f"{delta * delta}/{power}",
        },
        checks=checks,
    )
