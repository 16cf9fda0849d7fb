"""Command-line front door for generators, oracles, schemes, and experiments.

Each command and experiment takes exactly the flags of its table row. All
randomness flows from --seed, and report output carries no timestamps, so
identical invocations produce byte-identical files; the seeded trial
experiments accept --threads for compatibility, and it changes nothing.

Exit codes: 0 success / all asserted bounds pass, 1 bound violation,
2 usage or parameter error, 3 enumeration or check capacity exceeded,
4 internal error (an unexpected exception; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path
from typing import Iterable

from . import coverfree, lowerbounds, reconstruct
from .coverfree import CffConstructionError, CffParams, SetFamily, random_set_family
from .graphs import (
    Graph,
    check_family_cap,
    check_vertex_pair_cap,
    gen_bounded_degree,
    graph_from_text,
    graph_to_text,
    sample_clique_family,
    sample_blocked_clique_family,
    clique_family_desc,
    clique_family_size,
    enumerate_clique_family,
)
from .oracle import make_policy, run_scheme
from .reports import BoundCheck, ExperimentReport
from .schemes import (
    QueryScheme,
    SchemeConstructionError,
    cff_scheme,
    check_pair_cap,
    duality_check,
    random_queries,
    randomized_scheme,
)
from .util import CapExceededError, check_draw_cap, derive_seed

EXIT_OK = 0
EXIT_BOUND_VIOLATION = 1
EXIT_USAGE = 2
EXIT_CAP_EXCEEDED = 3
EXIT_INTERNAL = 4


def _write(path: str | None, text: str | Iterable[str]) -> None:
    """Write text, or each string of an iterable in turn, to path or stdout."""
    chunks = [text] if isinstance(text, str) else text
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w") as f:
            f.writelines(chunks)


def _emit_report(report: ExperimentReport, args) -> int:
    text = report.to_json() if args.json else report.format_text()
    _write(args.out, text)
    return EXIT_OK if report.passed else EXIT_BOUND_VIOLATION


# CLI tokens for the two hidden-clique family variants and their samplers
_FAMILY_SAMPLERS = {"thm2": sample_clique_family, "thm3": sample_blocked_clique_family}


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


def _build_scheme(args) -> QueryScheme:
    if args.scheme is not None:
        return QueryScheme.from_text(Path(args.scheme).read_text())
    scheme_seed = derive_seed(args.seed, 1)
    if args.scheme_kind == "randomized":
        p = args.p if args.p is not None else 1.0 / (args.delta + 1)
        return randomized_scheme(args.n, args.delta, args.c, p, scheme_seed)
    return cff_scheme(args.n, args.delta, seed=scheme_seed)


def cmd_reconstruct(args) -> int:
    # refuse on the pair cap of decode, then build the scheme, whose builder
    # refuses on its own cap before any draw, before reading or generating
    check_vertex_pair_cap(args.n)
    scheme = _build_scheme(args)
    if args.graph is not None:
        truth = graph_from_text(Path(args.graph).read_text(), n=args.n)
        if truth.delta > args.delta:
            raise ValueError(f"graph has maximum degree {truth.delta} > --delta {args.delta}")
    else:
        truth = _generate_graph(args)
    policy = make_policy(args.policy, seed=derive_seed(args.seed, 2))
    transcript = run_scheme(truth, scheme, policy)
    if args.transcript_out:
        _write(args.transcript_out, transcript.lines())
    result = reconstruct.decode(truth.n, transcript)
    _write(args.out, reconstruct.decode_result_to_text(result))
    exact = result.matches(truth, args.complete_as_nonedge)
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


def _alpha_bound(args) -> ExperimentReport:
    deviation = coverfree.alpha_product_bound(args.w, args.r, args.grid)
    return ExperimentReport(
        name="alpha-product-bound",
        parameters={"w": args.w, "r": args.r, "grid": args.grid},
        measured={"max_deviation": deviation},
        bounds={"tolerance": 1e-12},
        checks=(
            BoundCheck.of("grid_max_le_closed_form", deviation, "<=", 1e-12),
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
    return lowerbounds.family_count_check(args.n, args.delta, args.variant == "thm3")


def _bound_table(args) -> ExperimentReport:
    report = lowerbounds.bound_table(
        _parse_int_list(args.n_list), _parse_int_list(args.delta_list)
    )
    if args.emit_csv:
        _write(args.emit_csv, lowerbounds.bound_table_csv(report))
    return report


def _profile_count(args) -> ExperimentReport:
    desc = clique_family_desc(args.n, args.delta)
    # refuse before a draw that can take seconds: on the enumeration cap, on
    # the draw's own cap, so an oversized draw is named as one, and on the
    # answers the count would hold
    check_family_cap(desc)
    check_draw_cap(args.queries, args.n)
    lowerbounds.check_answer_cap(args.queries, clique_family_size(args.n, args.delta))
    scheme = random_queries(args.n, args.queries, args.p, derive_seed(args.seed, 1))
    family = enumerate_clique_family(args.n, args.delta)
    return lowerbounds.profile_count(scheme, family, desc)


def _dq_stats(args) -> ExperimentReport:
    p = args.p if args.p is not None else 1.0 / (args.delta + 1)

    def scheme_gen(seed: int) -> QueryScheme:
        # dq_statistics refuses a bad --n or --delta before the first call;
        # then, as in _profile_count, the draw's cap and the answer cap
        check_draw_cap(args.queries, args.n)
        lowerbounds.check_answer_cap(args.queries, args.trials)
        return random_queries(args.n, args.queries, p, seed)

    return lowerbounds.dq_statistics(
        args.n, args.delta, scheme_gen, args.trials, args.seed
    )


def _lemma7(args) -> ExperimentReport:
    return coverfree.survivor_count_experiment(
        _load_or_random_family(args), CffParams(args.w, args.r), args.trials, args.seed
    )


def _lemma8(args) -> ExperimentReport:
    return coverfree.cover_witness_search(
        _load_or_random_family(args), CffParams(args.w, args.r, args.s), args.trials,
        args.seed,
    )


def _duality(args) -> ExperimentReport:
    if args.scheme is not None:
        scheme = QueryScheme.from_text(Path(args.scheme).read_text())
    else:
        if args.seed is None:
            raise ValueError("random scheme needs --seed")
        if args.n is None:
            raise ValueError("random scheme needs --n")
        # refuse on the pair bound of is_query_scheme before a draw that can take seconds
        check_pair_cap(args.n, args.delta)
        scheme = random_queries(args.n, args.queries, args.p, args.seed)
    dreport = duality_check(scheme, args.delta)
    return ExperimentReport(
        name="scheme-cff-duality",
        parameters={"n": scheme.n, "delta": args.delta, "queries": len(scheme)},
        measured={
            "is_query_scheme": dreport.is_scheme,
            "dual_cover_free_necessary": dreport.dual_cover_free_necessary,
            "dual_cover_free_sufficient": dreport.dual_cover_free_sufficient,
        },
        checks=dreport.checks,
    )


REQUIRED = object()  # the row default of a flag that must be given

# add_argument keywords of each flag, for every row that names it; a flag
# not listed takes a string, and build_parser sets --family per table
_FLAGS = {
    **{f: {"type": int} for f in ("n", "delta", "seed", "w", "r", "s", "t-max", "grid",
                                  "queries", "trials", "sets", "ground")},
    **{f: {"type": float} for f in ("density", "c", "p")},
    **{f: {"action": "store_true"} for f in ("json", "complete-as-nonedge")},
    "threads": {"type": int, "help": "accepted for compatibility; trials run in one thread"},
    "graph": {"help": "graph file; omit to generate"},
    "scheme": {"help": "scheme file; omit to build one"},
    "scheme-kind": {"choices": ["randomized", "cff"]},
    "policy": {"choices": ["greedy-lex", "random"]},
    "variant": {"choices": list(_FAMILY_SAMPLERS)},
}

# the graph that generate writes and reconstruct recovers, unless --graph names one
_GRAPH = {"family": "random", "n": REQUIRED, "delta": REQUIRED, "density": None,
          "seed": REQUIRED, "out": None}

# name -> (help, handler, {flag: default or REQUIRED})
_COMMANDS = {
    "generate": ("write a graph file", cmd_generate, {**_GRAPH, "family": REQUIRED}),
    "reconstruct": ("run scheme + oracle + decoder", cmd_reconstruct, {
        **_GRAPH, "graph": None, "scheme": None, "scheme-kind": "cff", "c": 2.0, "p": None,
        "policy": "greedy-lex", "transcript-out": None, "complete-as-nonedge": False}),
}

# every experiment prints its report, or writes it to --out, as text or JSON
_REPORT = {"json": False, "out": None}
_SET_FAMILY = {"family": None, "sets": None, "ground": None, "density": 0.5, "w": REQUIRED,
               "r": REQUIRED, "trials": 1000, "seed": REQUIRED, "threads": 1, **_REPORT}

# name -> (help, report builder, {flag: default or REQUIRED}), in the order
# `experiment --help` lists them
_EXPERIMENTS = {
    "profile-count": ("transcripts over a hidden-clique family", _profile_count, {
        "n": REQUIRED, "delta": REQUIRED, "queries": 1, "p": 0.5, "seed": REQUIRED,
        "threads": 1, **_REPORT}),
    "dq-stats": ("answer counts for random hidden cliques", _dq_stats, {
        "n": REQUIRED, "delta": REQUIRED, "queries": 1, "p": None, "trials": 1000,
        "seed": REQUIRED, "threads": 1, **_REPORT}),
    "family-count": ("hidden-clique family-count chain", _family_count,
                     {"n": REQUIRED, "delta": REQUIRED, "variant": "thm2", **_REPORT}),
    "lemma7": ("survivor counts of sampled draws", _lemma7, _SET_FAMILY),
    "lemma8": ("cover witnesses of sampled draws", _lemma8, {**_SET_FAMILY, "s": 1}),
    "alpha-bound": ("grid check of the a^w (1-a)^r peak", _alpha_bound,
                    {"w": REQUIRED, "r": REQUIRED, "grid": 100_000, **_REPORT}),
    "duality": ("query scheme against its dual cover-free family", _duality, {
        "n": None, "delta": REQUIRED, "scheme": None, "queries": 1, "p": 0.5, "seed": None,
        **_REPORT}),
    "exact-t": ("exact minimal cover-free ground size", _exact_t,
                {"n": REQUIRED, "w": REQUIRED, "r": REQUIRED, "t-max": 6, **_REPORT}),
    "bound-table": ("raw query-count formulas", _bound_table, {
        "n-list": "6,9,12,15", "delta-list": "1,2,3,4", "emit-csv": None, **_REPORT}),
}


# a hidden-clique family is drawn from --n, --delta and --seed alone
_FAMILY_UNREAD = {f"family {family}": ("density",) for family in _FAMILY_SAMPLERS}
# row -> {"flag" or "flag value": the flags that the row's handler does not
# read once flag is given, or once it has that value}
_UNREAD_WITH = {
    "generate": _FAMILY_UNREAD,
    "reconstruct": {"graph": ("family", "density"), "scheme": ("scheme-kind", "c", "p"),
                    **_FAMILY_UNREAD, "scheme-kind cff": ("c", "p")},
    "lemma7": {"family": ("sets", "ground", "density")},
    "lemma8": {"family": ("sets", "ground", "density")},
    "duality": {"scheme": ("n", "queries", "p", "seed")},
}


def _refuse_unread(name: str, defaults: dict, args) -> None:
    """ValueError naming a flag set off its row default that the chosen branch ignores."""
    for given, unread in _UNREAD_WITH.get(name, {}).items():
        dest, _, choice = given.partition(" ")
        value = getattr(args, dest.replace("-", "_"))
        if value is None or choice and value != choice:
            continue
        for flag in unread:
            if getattr(args, flag.replace("-", "_")) != defaults[flag]:
                raise ValueError(f"--{flag} is not read with --{given}")


def _add_rows(sub, rows, flags) -> None:
    """One subparser per row, taking exactly the row's flags."""
    for name, (help_text, _, defaults) in rows.items():
        row = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag, default in defaults.items():
            given = {"required": True} if default is REQUIRED else {"default": default}
            row.add_argument(f"--{flag}", **given, **flags.get(flag, {}))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="misrecon",
        description="Graph reconstruction from MIS queries: generators, "
        "schemes, decoding, and counting experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    family = {"choices": ["random", *_FAMILY_SAMPLERS]}
    _add_rows(sub, _COMMANDS, {**_FLAGS, "family": family})
    exp = sub.add_parser("experiment", help="run a named experiment")
    _add_rows(exp.add_subparsers(dest="name", required=True), _EXPERIMENTS,
              {**_FLAGS, "family": {"help": "set-family file"}})
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "experiment":
            _refuse_unread(args.name, _EXPERIMENTS[args.name][2], args)
            return _emit_report(_EXPERIMENTS[args.name][1](args), args)
        _refuse_unread(args.command, _COMMANDS[args.command][2], args)
        return _COMMANDS[args.command][1](args)
    except CapExceededError as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    except (ValueError, CffConstructionError, SchemeConstructionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:
        # a parameter whose arithmetic leaves the float or C integer range
        print(f"error: parameter too large: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        # a fault of the program, not of its input: keep it apart from
        # exit 1, which means a bound was violated
        print("internal error:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
