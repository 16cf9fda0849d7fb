"""Command-line front door for generators, oracles, schemes, and experiments.

All randomness flows from the mandatory --seed flag, and report output
carries no timestamps, so identical invocations produce byte-identical
files; --threads is accepted for compatibility and changes nothing.

Exit codes: 0 success / all asserted bounds pass, 1 bound violation,
2 usage or parameter error, 3 enumeration or check capacity exceeded,
4 internal error (an unexpected exception; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

from . import coverfree, lowerbounds, reconstruct
from .coverfree import CffConstructionError, CffParams, SetFamily, random_set_family
from .graphs import (
    DEFAULT_ENUM_CAP,
    Graph,
    gen_bounded_degree,
    graph_from_text,
    graph_to_text,
    sample_clique_family,
    sample_blocked_clique_family,
    clique_family_desc,
    enumerate_clique_family,
)
from .oracle import make_policy, run_scheme
from .reports import BoundCheck, ExperimentReport
from .schemes import (
    QueryScheme,
    SchemeConstructionError,
    cff_scheme,
    duality_check,
    random_queries,
    randomized_scheme,
)
from .util import CapExceededError, derive_seed

EXIT_OK = 0
EXIT_BOUND_VIOLATION = 1
EXIT_USAGE = 2
EXIT_CAP_EXCEEDED = 3
EXIT_INTERNAL = 4


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _emit_report(report: ExperimentReport, args) -> int:
    text = report.to_json() if args.json else report.format_text()
    _write(args.out, text)
    return EXIT_OK if report.passed else EXIT_BOUND_VIOLATION


# CLI tokens for the two hidden-clique family variants: their samplers, and
# their names in family-count reports
_FAMILY_SAMPLERS = {"thm2": sample_clique_family, "thm3": sample_blocked_clique_family}
_FAMILY_TOKENS = {"thm2": "clique", "thm3": "clique-block"}


def _generate_graph(args) -> Graph:
    if args.family == "random":
        density = 1.0 if args.density is None else args.density
        return gen_bounded_degree(args.n, args.delta, density, args.seed)
    g, _ = _FAMILY_SAMPLERS[args.family](args.n, args.delta, args.seed)
    return g


def cmd_generate(args) -> int:
    g = _generate_graph(args)
    _write(args.out, graph_to_text(g))
    print(
        f"generated family={args.family} n={g.n} m={g.num_edges} "
        f"max_degree={g.delta} seed={args.seed}"
        + (f" out={args.out}" if args.out else "")
    )
    return EXIT_OK


def _build_scheme(args, n: int, delta: int) -> QueryScheme:
    if args.scheme is not None:
        return QueryScheme.from_text(Path(args.scheme).read_text())
    scheme_seed = derive_seed(args.seed, 1)
    if args.scheme_kind == "randomized":
        p = args.p if args.p is not None else 1.0 / (delta + 1)
        return randomized_scheme(n, delta, args.c, p, scheme_seed)
    if args.scheme_kind == "cff":
        return cff_scheme(n, delta, seed=scheme_seed)
    raise ValueError(f"unknown scheme kind {args.scheme_kind}")


def cmd_reconstruct(args) -> int:
    if args.graph is not None:
        truth = graph_from_text(Path(args.graph).read_text(), n=args.n)
    else:
        truth = _generate_graph(args)
    scheme = _build_scheme(args, truth.n, args.delta)
    policy = make_policy(args.policy, seed=derive_seed(args.seed, 2))
    transcript = run_scheme(truth, scheme, policy)
    if args.transcript_out:
        _write(args.transcript_out, transcript.to_text())
    result = reconstruct.decode(truth.n, transcript)
    decoded_text = reconstruct.decode_result_to_text(result)
    _write(args.out, decoded_text)
    complete = result.complete or args.complete_as_nonedge
    exact = complete and result.as_graph(unknown_as_nonedge=True) == truth
    print(
        f"reconstructed n={truth.n} delta={args.delta} queries={len(scheme)} "
        f"policy={args.policy} seed={args.seed} unknown={len(result.unknown_pairs)} "
        f"exact-match: {'true' if exact else 'false'}"
    )
    return EXIT_OK


def _load_or_random_family(args) -> SetFamily:
    if args.family is not None:
        return SetFamily.from_text(Path(args.family).read_text())
    if args.sets is None or args.ground is None:
        raise ValueError("need --family FILE or --sets/--ground for a random family")
    return random_set_family(args.sets, args.ground, args.density, args.seed)


def _parse_int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _require(args, names):
    missing = [name for name in names if getattr(args, name) is None]
    if missing:
        flags = ", ".join(f"--{m.replace('_', '-')}" for m in missing)
        raise ValueError(f"experiment {args.name} requires {flags}")


def _alpha_bound(args) -> ExperimentReport:
    deviation = coverfree.alpha_product_bound(args.w, args.r, args.grid)
    passed = deviation <= 1e-12
    return ExperimentReport(
        name="alpha-product-bound",
        parameters={"w": args.w, "r": args.r, "grid": args.grid},
        measured={"max_deviation": deviation},
        bounds={"tolerance": 1e-12},
        checks=(
            BoundCheck("grid_max_le_closed_form", deviation, "<=", 1e-12, passed),
        ),
    )


def _exact_t(args) -> ExperimentReport:
    found = coverfree.exact_t(args.n, args.w, args.r, args.t_max)
    return ExperimentReport(
        name="exact-minimal-ground-size",
        parameters={"n": args.n, "w": args.w, "r": args.r, "t_max": args.t_max},
        measured={"t": found if found is not None else "not-found"},
    )


def _family_count(args) -> ExperimentReport:
    return lowerbounds.family_count_check(
        args.n, args.delta, _FAMILY_TOKENS[args.variant]
    )


def _bound_table(args) -> ExperimentReport:
    report = lowerbounds.bound_table(
        _parse_int_list(args.n_list), _parse_int_list(args.delta_list)
    )
    if args.emit_csv:
        _write(args.emit_csv, lowerbounds.bound_table_csv(report))
    return report


def _profile_count(args) -> ExperimentReport:
    p = args.p if args.p is not None else 0.5
    scheme = random_queries(args.n, args.queries, p, derive_seed(args.seed, 1))
    desc = clique_family_desc(args.n, args.delta)
    family = enumerate_clique_family(args.n, args.delta, cap=args.enum_cap)
    return lowerbounds.profile_count(scheme, family, desc)


def _dq_stats(args) -> ExperimentReport:
    p = args.p if args.p is not None else 1.0 / (args.delta + 1)

    def scheme_gen(seed: int) -> QueryScheme:
        return random_queries(args.n, args.queries, p, seed)

    return lowerbounds.dq_statistics(
        args.n, args.delta, scheme_gen, args.trials, args.seed
    )


def _on_set_family(experiment):
    """Handler that runs a seeded coverfree experiment on --family or a random one."""

    def run(args) -> ExperimentReport:
        family = _load_or_random_family(args)
        params = CffParams(args.w, args.r, args.s)
        return experiment(family, params, args.trials, args.seed)

    return run


def _duality(args) -> ExperimentReport:
    if args.scheme is not None:
        scheme = QueryScheme.from_text(Path(args.scheme).read_text())
    else:
        if args.seed is None:
            raise ValueError("random scheme needs --seed")
        if args.n is None:
            raise ValueError("random scheme needs --n")
        p = args.p if args.p is not None else 0.5
        scheme = random_queries(args.n, args.queries, p, args.seed)
    dreport = duality_check(scheme, args.delta)
    return ExperimentReport(
        name="scheme-cff-duality",
        parameters={"n": scheme.n, "delta": args.delta, "queries": len(scheme)},
        measured={
            "is_query_scheme": dreport.is_scheme,
            "dual_cover_free_necessary": dreport.dual_cover_free_necessary,
            "dual_cover_free_sufficient": dreport.dual_cover_free_sufficient,
        },
        checks=(
            BoundCheck(
                "scheme_implies_dual_cover_free",
                dreport.is_scheme, "=>", dreport.dual_cover_free_necessary,
                dreport.necessity_holds,
            ),
            BoundCheck(
                "dual_cover_free_implies_scheme",
                dreport.dual_cover_free_sufficient, "=>", dreport.is_scheme,
                dreport.sufficiency_holds,
            ),
        ),
    )


# name -> (required flags, handler), in the order `experiment --help` lists
# them; main rejects a missing --seed through the parser before any other flag
_EXPERIMENTS = {
    "profile-count": (("seed", "n", "delta", "queries"), _profile_count),
    "dq-stats": (("seed", "n", "delta"), _dq_stats),
    "family-count": (("n", "delta"), _family_count),
    "lemma7": (("seed", "w", "r"), _on_set_family(coverfree.survivor_count_experiment)),
    "lemma8": (("seed", "w", "r"), _on_set_family(coverfree.cover_witness_search)),
    "alpha-bound": (("w", "r"), _alpha_bound),
    "duality": (("delta",), _duality),
    "exact-t": (("n", "w", "r"), _exact_t),
    "bound-table": ((), _bound_table),
}


def cmd_experiment(args) -> int:
    required, run = _EXPERIMENTS[args.name]
    _require(args, required)
    return _emit_report(run(args), args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="misrecon",
        description="Graph reconstruction from MIS queries: generators, "
        "schemes, decoding, and counting experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a graph file")
    gen.add_argument("--family", choices=["random", *_FAMILY_SAMPLERS], required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--delta", type=int, required=True)
    gen.add_argument("--density", type=float, default=None)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_generate)

    rec = sub.add_parser("reconstruct", help="run scheme + oracle + decoder")
    rec.add_argument("--n", type=int, required=True)
    rec.add_argument("--delta", type=int, required=True)
    rec.add_argument("--graph", default=None, help="graph file; omit to generate")
    rec.add_argument("--family", choices=["random", *_FAMILY_SAMPLERS], default="random")
    rec.add_argument("--density", type=float, default=None)
    rec.add_argument("--scheme", default=None, help="scheme file; omit to build one")
    rec.add_argument("--scheme-kind", choices=["randomized", "cff"], default="cff")
    rec.add_argument("--c", type=float, default=2.0)
    rec.add_argument("--p", type=float, default=None)
    rec.add_argument("--policy", default="greedy-lex",
                     choices=["greedy-lex", "random"])
    rec.add_argument("--seed", type=int, required=True)
    rec.add_argument("--out", default=None)
    rec.add_argument("--transcript-out", default=None)
    rec.add_argument("--complete-as-nonedge", action="store_true")
    rec.set_defaults(func=cmd_reconstruct)

    exp = sub.add_parser("experiment", help="run a named experiment")
    exp.add_argument("name", choices=list(_EXPERIMENTS))
    exp.add_argument("--n", type=int, default=None)
    exp.add_argument("--delta", type=int, default=None)
    exp.add_argument("--variant", choices=["thm2", "thm3"], default="thm2")
    exp.add_argument("--w", type=int, default=None)
    exp.add_argument("--r", type=int, default=None)
    exp.add_argument("--s", type=int, default=1)
    exp.add_argument("--t-max", type=int, default=6)
    exp.add_argument("--grid", type=int, default=100_000)
    exp.add_argument("--queries", type=int, default=1)
    exp.add_argument("--p", type=float, default=None)
    exp.add_argument("--trials", type=int, default=1000)
    exp.add_argument("--seed", type=int, default=None)
    exp.add_argument("--threads", type=int, default=1,
                     help="accepted for compatibility; trials run in one thread")
    exp.add_argument("--family", default=None, help="set-family file")
    exp.add_argument("--sets", type=int, default=None)
    exp.add_argument("--ground", type=int, default=None)
    exp.add_argument("--density", type=float, default=0.5)
    exp.add_argument("--scheme", default=None)
    exp.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP)
    exp.add_argument("--n-list", default="6,9,12,15")
    exp.add_argument("--delta-list", default="1,2,3,4")
    exp.add_argument("--emit-csv", default=None)
    exp.add_argument("--json", action="store_true")
    exp.add_argument("--out", default=None)
    exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "experiment" and args.seed is None:
        if "seed" in _EXPERIMENTS[args.name][0]:
            parser.error(f"experiment {args.name} requires --seed")
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    except (ValueError, CffConstructionError, SchemeConstructionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        # a fault of the program, not of its input: keep it apart from
        # exit 1, which means a bound was violated
        print("internal error:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
