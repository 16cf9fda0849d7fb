"""The benchmark's workloads: regimes, instance lists, timed calls and checks.

Every call into misrecon goes through a module attribute (`graphs.f(...)`,
never a name imported from a module), so the tracer's wrappers see it.

An instance is the unit the closed loop times. `execute` makes only the
calls a user's run makes; `check` runs after the clock stops and derives
the counters and the correctness verdict from the instance's outputs, the
same way whether or not the run is traced.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from misrecon import coverfree, graphs, lowerbounds, oracle, reconstruct, schemes
from misrecon.util import derive_seed

# Why each workload exists is in BENCHMARK.json; the regimes are the
# ROADMAP's R1 (recon-trials), R2 (recon-large) and R3 (exhaustive).
# recon-large is not listed in BENCHMARK.json: its instances take 3-6 s of
# mostly memory-bound generation, so a 45 s run holds too few of them to
# give a steady median on a host whose speed drifts, and the machine probe
# does not track memory-bound slowdowns. Run it by name to study the
# generator; the smoke tests use it for the CLI cross-check.
REGIMES: dict[str, dict] = {
    "recon-large": {
        # one `misrecon reconstruct --scheme-kind randomized` run per
        # instance; the pool lists the CLI --seed values
        "kind": "recon",
        "n": 2000, "delta": 16, "density": 0.5, "c": 1.0,
        "policy": "greedy-lex", "pool": list(range(1, 33)),
    },
    "recon-trials": {
        # trial i of success_rate(seed=base): per-trial seed derive_seed(base, i)
        "kind": "trial",
        "n": 200, "delta": 8, "density": 0.5, "c": 10.0,
        "policy": "random", "base": 30_000, "pool": list(range(384)),
    },
    "exhaustive": {
        "kind": "exhaustive",
        # (a) the check `reconstruct --scheme-kind cff --n 12 --delta 2` runs
        "cff": {"n": 12, "delta": 2, "cli_seeds": [1, 2, 3, 5, 6, 7, 8, 11]},
        # (b) the c01 sweep at one n: seed search for a verified scheme,
        # then each graph decoded under the four c01 policies
        "c01": {"n": 5, "delta": 2, "c": 0.75, "max_seeds": 50,
                "policy_seeds": [101, 202], "graphs": None},
        # (c) a fixed slice of the c02 delta=2 random six-vertex corpus
        "c02": {"n": 6, "delta": 2, "corpus_seed": 20_000, "scheme_seed": 7,
                "slice": [0, 6]},
        # (d) the hidden-clique family of `experiment profile-count`
        "profile": {"n": 12, "delta": 4, "queries": 3, "p": 0.5,
                    "seeds": list(range(1, 17))},
    },
}


REFERENCE = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> dict:
    """Verdicts and digests recorded by record_reference.py, per workload."""
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


@dataclass(frozen=True)
class Instance:
    key: str  # names the input; reference verdicts and digests use it
    unit: str
    data: tuple


@dataclass
class Outcome:
    """What `check` derives from one instance's outputs."""

    counters: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    digest: str | None = None  # of the decoded outputs, if any
    exact: int = 0  # decodes whose graph equals the truth
    decodes: int = 0
    pairs: int = 0  # vertex pairs judged over all decodes
    wrong_pairs: int = 0
    reference: str = "unrecorded"  # "match", "differ" or "unrecorded"

    def observed(self) -> tuple:
        """Everything derived from the outputs, for traced/untraced comparison."""
        return (self.counters, self.digest, self.exact, self.decodes, self.pairs,
                self.wrong_pairs, self.reference, len(self.errors))


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()[:16]


def _add(counters: dict, key: str, value: float) -> None:
    counters[key] = counters.get(key, 0) + value


class Workload:
    """One workload: its instance list, timed calls and checks."""

    def __init__(self, name: str, regime: dict, reference: dict | None):
        self.name = name
        self.regime = regime
        ref = (reference or {}).get(name, {})
        # a reference recorded for another regime (e.g. a toy one) is unusable
        self.expected = ref.get("expected", {}) if ref.get("regime") == regime else {}
        self.kind = regime["kind"]
        self._graph_counts: dict[tuple[int, int], int] = {}
        self.c01_scheme = None

    # -- instance lists -------------------------------------------------

    def instances(self, seed: int) -> list[Instance]:
        """Inputs for a run. Recon workloads cycle through the whole pool in
        a seeded order. The exhaustive list is one pass, always run whole:
        every fixed unit plus one seeded pick of the (a) and (d) inputs."""
        rng = random.Random(seed)
        pool = self.pool()
        if self.kind == "exhaustive":
            picks = [rng.choice([i for i in pool if i.unit == u]) for u in ("cff", "profile")]
            pool = [i for i in pool if i.unit not in ("cff", "profile")] + picks
        rng.shuffle(pool)
        return pool

    def pool(self) -> list[Instance]:
        """Every input the workload can draw, in a fixed order."""
        r = self.regime
        if self.kind in ("recon", "trial"):
            return [Instance(f"{self.kind}/{k}", self.kind, (k,)) for k in r["pool"]]
        cff, c01, c02, prof = r["cff"], r["c01"], r["c02"], r["profile"]
        units = [Instance(f"cff/{s}", "cff", (s,)) for s in cff["cli_seeds"]]
        self.c01_scheme, _ = self._c01_search()
        units.append(Instance("search", "search", ()))
        graph_list = graphs.enumerate_bounded_degree_graphs(c01["n"], c01["delta"])
        lo, hi = c01["graphs"] or (0, len(graph_list))
        units.extend(
            Instance(f"graph/{i}", "graph", (graph_list[i],)) for i in range(lo, hi)
        )
        lo, hi = c02["slice"]
        units.extend(
            Instance(f"duality/{i}", "duality", (scheme,))
            for i, scheme in enumerate(self._c02_corpus()) if lo <= i < hi
        )
        desc = graphs.clique_family_desc(prof["n"], prof["delta"])
        for s in prof["seeds"]:
            scheme = schemes.random_queries(
                prof["n"], prof["queries"], prof["p"], derive_seed(s, 1)
            )
            units.append(Instance(f"profile/{s}", "profile", (scheme, desc)))
        return units

    def _c02_corpus(self) -> list:
        """The delta=2 random schemes of the c02 acceptance test, in order."""
        c02 = self.regime["c02"]
        rng = random.Random(c02["corpus_seed"])
        corpus = []
        for delta in (1, 2):
            for i in range(26):
                t = rng.randint(1, 12)
                p = rng.uniform(0.15, 0.9)
                if delta == c02["delta"]:
                    corpus.append(schemes.random_queries(
                        c02["n"], t, p, seed=derive_seed(c02["scheme_seed"], delta, i)
                    ))
        return corpus

    def _c01_search(self):
        """(first verified scheme, builder attempts), as the c01 test searches."""
        c01 = self.regime["c01"]
        n, delta, c = c01["n"], c01["delta"], c01["c"]

        def builder(n_, w_, r_, seed_):
            return coverfree.random_cff(n_, w_, r_, c=c, seed=seed_)

        for seed in range(c01["max_seeds"]):
            try:
                scheme = schemes.cff_scheme(n, delta, builder=builder, seed=seed, verify=True)
            except (schemes.SchemeConstructionError, coverfree.CffConstructionError):
                continue
            return scheme, seed + 1
        raise RuntimeError(f"no verified scheme within {c01['max_seeds']} seeds")

    # -- timed calls ----------------------------------------------------

    def execute(self, inst: Instance):
        """The calls the instance times; returns the outputs `check` reads."""
        r = self.regime
        if inst.unit == "recon":
            # the seed derivation of `misrecon reconstruct`
            (seed,) = inst.data
            return self._pipeline(
                seed, derive_seed(seed, 1), derive_seed(seed, 2)
            )
        if inst.unit == "trial":
            # the per-trial derivation of reconstruct.success_rate
            trial_seed = derive_seed(r["base"], inst.data[0])
            return self._pipeline(
                derive_seed(trial_seed, 0), derive_seed(trial_seed, 1),
                derive_seed(trial_seed, 2),
            )
        if inst.unit == "cff":
            cff = r["cff"]
            try:
                return schemes.cff_scheme(
                    cff["n"], cff["delta"], seed=derive_seed(inst.data[0], 1), verify=True
                )
            except schemes.SchemeConstructionError:
                return None
        if inst.unit == "search":
            return self._c01_search()
        if inst.unit == "graph":
            (g,) = inst.data
            results = []
            for policy in self._c01_policies(g.n):
                transcript = oracle.run_scheme(g, self.c01_scheme, policy)
                results.append((transcript, reconstruct.decode(g.n, transcript)))
            return results
        if inst.unit == "duality":
            return schemes.duality_check(inst.data[0], r["c02"]["delta"])
        if inst.unit == "profile":
            scheme, desc = inst.data
            family = list(graphs.enumerate_clique_family(desc.n, desc.delta))
            return lowerbounds.profile_count(scheme, family, desc)
        raise ValueError(f"unknown unit {inst.unit}")

    def _pipeline(self, graph_seed: int, scheme_seed: int, policy_seed: int):
        r = self.regime
        n, delta = r["n"], r["delta"]
        truth = graphs.gen_bounded_degree(n, delta, r["density"], graph_seed)
        scheme = schemes.randomized_scheme(n, delta, r["c"], 1.0 / (delta + 1), scheme_seed)
        policy = oracle.make_policy(r["policy"], seed=policy_seed)
        transcript = oracle.run_scheme(truth, scheme, policy)
        return truth, scheme, transcript, reconstruct.decode(n, transcript)

    def _c01_policies(self, n: int) -> list:
        a, b = self.regime["c01"]["policy_seeds"]
        return [
            oracle.GreedyLexPolicy(),
            oracle.GreedyOrderPolicy(range(n - 1, -1, -1)),
            oracle.RandomMisPolicy(derive_seed(a, n)),
            oracle.RandomMisPolicy(derive_seed(b, n)),
        ]

    # -- untimed checks -------------------------------------------------

    def check(self, inst: Instance, output, error: BaseException | None) -> Outcome:
        out = Outcome()
        if error is not None:
            out.errors.append(f"raised {type(error).__name__}: {error}")
            if isinstance(error, oracle.OracleError):
                _add(out.counters, "oracle.errors", 1)
            return out
        getattr(self, f"_check_{inst.unit}")(inst, output, out)
        expected = self.expected.get(inst.key)
        if expected is not None:
            if inst.unit in ("recon", "trial", "graph"):
                out.reference = "match" if expected == out.digest else "differ"
            else:
                verdict = self.verdict(inst, output)
                out.reference = "match" if expected == verdict else "differ"
                if expected != verdict:
                    out.errors.append(f"verdict {verdict} != recorded {expected}")
        return out

    def verdict(self, inst: Instance, output):
        """The checker verdict recorded in the reference for this unit."""
        if inst.unit == "cff":
            return output is not None  # the cover-free result
        if inst.unit == "search":
            return output[1]
        if inst.unit == "duality":
            return [output.is_scheme, output.dual_cover_free_necessary,
                    output.dual_cover_free_sufficient]
        if inst.unit == "profile":
            return [output.measured["distinct_transcripts"], output.passed]
        return None

    def _decode_counters(self, truth, transcript, result, out: Outcome) -> str:
        """Oracle and decoder counters of one decode; returns its text."""
        c = out.counters
        _add(c, "oracle.queries", len(transcript))
        _add(c, "oracle.answered", len(transcript))
        _add(c, "oracle.answer_members", sum(len(a) for _, a in transcript.entries))
        n = truth.n
        pairs = n * (n - 1) // 2
        decoded = set(result.edges)
        true_edges = set(truth.edges)
        unknown = set(result.unknown_pairs)
        false_edges = len(decoded - true_edges)
        # a true edge neither decoded as edge nor left unknown was called a non-edge
        missed = len(true_edges - decoded - unknown)
        _add(c, "reconstruct.pairs_edge", len(decoded))
        _add(c, "reconstruct.pairs_unknown", len(unknown))
        _add(c, "reconstruct.pairs_nonedge", pairs - len(decoded) - len(unknown))
        _add(c, "reconstruct.false_edges", false_edges)
        _add(c, "reconstruct.missed_edges", missed)
        if missed:
            out.errors.append(f"{missed} true edges decoded as non-edges")
        wrong = len(decoded ^ true_edges)  # unknown pairs count as non-edges
        out.decodes += 1
        out.exact += wrong == 0
        out.pairs += pairs
        out.wrong_pairs += wrong
        return reconstruct.decode_result_to_text(result)

    def _check_recon(self, inst, output, out: Outcome) -> None:
        truth, scheme, transcript, result = output
        c = out.counters
        _add(c, "graphs.gen_edges", truth.num_edges)
        _add(c, "schemes.queries", len(scheme))
        _add(c, "schemes.query_members", sum(len(q) for q in scheme.queries))
        if truth.delta > self.regime["delta"]:
            out.errors.append(f"max degree {truth.delta} > {self.regime['delta']}")
        out.digest = _digest([self._decode_counters(truth, transcript, result, out)])

    _check_trial = _check_recon

    def _check_cff(self, inst, output, out: Outcome) -> None:
        n, delta = self.regime["cff"]["n"], self.regime["cff"]["delta"]
        c = out.counters
        _add(c, "coverfree.cff_attempts", 1)
        _add(c, "coverfree.check_combos", _combos(n, 2, 2 * delta))
        if output is not None:
            _add(c, "coverfree.cff_accepted", 1)
            _add(c, "schemes.queries", len(output))
            _add(c, "schemes.query_members", sum(len(q) for q in output.queries))

    def _check_search(self, inst, output, out: Outcome) -> None:
        scheme, attempts = output
        c01 = self.regime["c01"]
        c = out.counters
        _add(c, "coverfree.cff_attempts", attempts)
        _add(c, "coverfree.cff_accepted", 1)
        _add(c, "coverfree.check_combos",
             attempts * _combos(c01["n"], 2, 2 * c01["delta"]))
        _add(c, "schemes.queries", len(scheme))
        _add(c, "schemes.query_members", sum(len(q) for q in scheme.queries))

    def _check_graph(self, inst, output, out: Outcome) -> None:
        (g,) = inst.data
        texts = []
        for transcript, result in output:
            texts.append(self._decode_counters(g, transcript, result, out))
            if not (result.complete and result.graph == g):
                out.errors.append("verified CFF scheme did not decode exactly")
        out.digest = _digest(texts)

    def _check_duality(self, inst, output, out: Outcome) -> None:
        (scheme,) = inst.data
        delta = self.regime["c02"]["delta"]
        count = self._graph_count(scheme.n, delta)
        c = out.counters
        _add(c, "graphs.enum_graphs", count)
        _add(c, "schemes.check_pairs", count * (count - 1) // 2)
        _add(c, "coverfree.check_combos",
             _combos(scheme.n, 2, 2 * delta - 2) + _combos(scheme.n, 2, 2 * delta))
        if not output.ok:
            out.errors.append("duality implication violated")

    def _check_profile(self, inst, output, out: Outcome) -> None:
        scheme, desc = inst.data
        size = output.measured["family_size"]
        c = out.counters
        _add(c, "graphs.enum_graphs", size)
        _add(c, "oracle.queries", size * len(scheme))
        _add(c, "lowerbounds.family_size", size)
        _add(c, "lowerbounds.distinct_transcripts", output.measured["distinct_transcripts"])
        if size != graphs.clique_family_size(desc.n, desc.delta):
            out.errors.append("family size differs from its closed form")
        if not output.passed:
            out.errors.append("answer-count ceiling violated")

    # -- CLI cross-check ------------------------------------------------

    def cli_cases(self, insts: list[Instance], outcomes: list[Outcome]) -> list:
        """(`misrecon` argv, expected digest of its --out file) pairs.

        recon-large's first instance is re-run by the CLI; the exhaustive
        workload compares the CFF reconstruct of its unit (a) seed.
        """
        r = self.regime
        if self.kind == "recon":
            seed = insts[0].data[0]
            argv = ["reconstruct", "--n", str(r["n"]), "--delta", str(r["delta"]),
                    "--density", repr(r["density"]), "--scheme-kind", "randomized",
                    "--c", repr(r["c"]), "--policy", r["policy"], "--seed", str(seed)]
            return [(argv, outcomes[0].digest)]
        if self.kind == "exhaustive":
            cff = r["cff"]
            (seed,) = next(i.data for i in insts if i.unit == "cff")
            argv = ["reconstruct", "--n", str(cff["n"]), "--delta", str(cff["delta"]),
                    "--scheme-kind", "cff", "--seed", str(seed)]
            # cmd_reconstruct with its defaults: density 1, verified CFF scheme
            truth = graphs.gen_bounded_degree(cff["n"], cff["delta"], 1.0, seed)
            scheme = schemes.cff_scheme(cff["n"], cff["delta"], seed=derive_seed(seed, 1))
            policy = oracle.make_policy("greedy-lex", seed=derive_seed(seed, 2))
            transcript = oracle.run_scheme(truth, scheme, policy)
            result = reconstruct.decode(truth.n, transcript)
            return [(argv, _digest([reconstruct.decode_result_to_text(result)]))]
        return []

    def _graph_count(self, n: int, delta: int) -> int:
        key = (n, delta)
        if key not in self._graph_counts:
            self._graph_counts[key] = len(graphs.enumerate_bounded_degree_graphs(n, delta))
        return self._graph_counts[key]


def _combos(n: int, w: int, r: int) -> int:
    """(A, B) index combinations is_cover_free examines at most (computed)."""
    r_eff = min(r, n - w)
    return math.comb(n, w) * math.comb(n - w, r_eff)
