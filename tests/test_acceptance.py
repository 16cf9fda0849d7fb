"""Acceptance suite: one test per numbered criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Criterion 3 is implemented exactly as stated and
is expected to fail: at t = ceil(2 * delta^2 * ln n) queries the evidence
decoder still mislabels co-queried-but-never-co-answered non-adjacent pairs
as edges (measured success rate 0.0, for both oracles). The companion test
directly after it shows the same pipeline reaching 100% once the query
budget constant is raised; see the README for the analysis.
"""

import itertools
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from conftest import cli_env
from misrecon.coverfree import (
    CffParams,
    SetFamily,
    alpha_product_bound,
    exact_t,
    is_cover_free,
    survivor_count_experiment,
    random_cff,
    random_set_family,
)
from misrecon.graphs import (
    enumerate_bounded_degree_graphs,
    enumerate_clique_family,
    gen_bounded_degree,
    clique_family_desc,
    clique_family_size,
)
from misrecon.lowerbounds import (
    best_decoder_success,
    dq_statistics,
    family_count_check,
    profile_count,
)
from misrecon.oracle import (
    GreedyLexPolicy,
    GreedyOrderPolicy,
    RandomMisPolicy,
    run_scheme,
)
from misrecon.reconstruct import decode, success_rate
from misrecon.schemes import (
    QueryScheme,
    cff_scheme,
    duality_check,
    random_queries,
    randomized_scheme,
)
from misrecon.util import derive_seed, mask_from_members


def report_line(number, passed, detail):
    print(f"\nCRITERION {number}: {'PASS' if passed else 'FAIL'} -- {detail}")


def verified_cff_scheme(n, delta, c=0.75, max_seeds=50):
    """First seed whose randomized family passes exhaustive verification."""
    builder = lambda n_, w_, r_, seed_: random_cff(n_, w_, r_, c=c, seed=seed_)
    last_error = None
    for seed in range(max_seeds):
        try:
            return cff_scheme(n, delta, builder=builder, seed=seed, verify=True)
        except Exception as exc:  # verification failure; try the next seed
            last_error = exc
    raise AssertionError(f"no verified scheme within {max_seeds} seeds: {last_error}")


def test_c01_cff_exactness_pipeline():
    """Verified (2,2*delta)-CFF-dual scheme decodes every small graph exactly,
    under every applicable oracle policy."""
    start = time.time()
    delta = 2
    checked = 0
    for n in range(2, 7):
        scheme = verified_cff_scheme(n, delta)
        policies = [
            GreedyLexPolicy(),
            GreedyOrderPolicy(range(n - 1, -1, -1)),
            RandomMisPolicy(derive_seed(101, n)),
            RandomMisPolicy(derive_seed(202, n)),
        ]
        for g in enumerate_bounded_degree_graphs(n, delta):
            for policy in policies:
                result = decode(n, run_scheme(g, scheme, policy))
                assert result.complete and result.graph == g, (n, g.edges, policy)
                checked += 1
    elapsed = time.time() - start
    report_line(1, True, f"{checked} (graph, policy) decodes all exact in {elapsed:.1f}s")
    assert elapsed < 300


def test_c02_duality_implications():
    """No scheme in the random corpus violates either cover-free implication."""
    rng = random.Random(20_000)
    violations = 0
    total_random = 0
    for delta in (1, 2):
        for i in range(26):
            t = rng.randint(1, 12)
            p = rng.uniform(0.15, 0.9)
            scheme = random_queries(6, t, p, seed=derive_seed(7, delta, i))
            report = duality_check(scheme, delta)
            violations += not report.ok
            total_random += 1
        structured = [
            QueryScheme(6, tuple(
                mask_from_members(6, [u, v])
                for u in range(6) for v in range(u + 1, 6)
            )),
            QueryScheme(6, tuple(mask_from_members(6, [v]) for v in range(6))),
            QueryScheme(6, ()),
            verified_cff_scheme(6, delta),
        ]
        for scheme in structured:
            violations += not duality_check(scheme, delta).ok
    report_line(2, violations == 0,
                f"{total_random} random + 8 structured schemes, {violations} implication violations")
    assert total_random >= 50
    assert violations == 0


def _criterion3_rate(policy_gen, trials=50, c=2.0):
    n, delta = 200, 8
    p = 1.0 / (delta + 1)
    return success_rate(
        graph_gen=lambda s: gen_bounded_degree(n, delta, 0.5, seed=s),
        scheme_gen=lambda s: randomized_scheme(n, delta, c, p, s),
        policy_gen=policy_gen,
        trials=trials,
        seed=30_000,
    )


def test_c03_randomized_scheme_success():
    """n=200, delta=8, t=ceil(2*64*ln 200)=679, p=1/9, 50 trials, rate >= 0.9.

    Implemented exactly as stated. This criterion is not attainable with this
    decoder at this query budget; the failure is expected and
    analysed in the README (and the next test shows the budget that works).
    """
    greedy = _criterion3_rate(lambda s: GreedyLexPolicy())
    random_oracle = _criterion3_rate(lambda s: RandomMisPolicy(s))
    t = math.ceil(2.0 * 64 * math.log(200))
    passed = greedy.rate >= 0.9
    report_line(
        3, passed,
        f"t={t}: greedy-lex rate={greedy.rate:.3f}, random-MIS rate={random_oracle.rate:.3f} "
        f"(threshold 0.9; expected shortfall, see README)",
    )
    assert greedy.rate >= 0.9, (
        f"success rate {greedy.rate:.3f} < 0.9 at the stated query budget "
        f"t={t}; the evidence decoder needs a larger constant (see README)"
    )


def test_c03_supplement_working_constant():
    """Same pipeline at a validated query budget (c=10) reaches the threshold.

    Supplementary evidence for the scheme/decoder design; not the stated
    criterion.
    """
    report = _criterion3_rate(lambda s: GreedyLexPolicy(), trials=20, c=10.0)
    report_line(
        "3-supplement", report.rate >= 0.9,
        f"c=10 (t={math.ceil(10 * 64 * math.log(200))}): greedy-lex rate={report.rate:.3f}",
    )
    assert report.rate >= 0.9


def test_c04_profile_counting():
    """Distinct transcripts over the 28-member family never exceed the
    answer-count ceilings; best decoder success equals T/28 exactly."""
    n, delta = 9, 2
    desc = clique_family_desc(n, delta)
    family = list(enumerate_clique_family(n, delta))
    assert len(family) == 28
    rng = random.Random(40_000)
    worst = 0
    for i in range(20):
        t = i % 3 + 1
        scheme = random_queries(n, t, rng.uniform(0.2, 0.8), seed=derive_seed(9, i))
        report = profile_count(scheme, family, desc)
        assert report.passed, report.format_text()
        distinct = report.measured["distinct_transcripts"]
        assert distinct <= min(report.bounds["flat_bound"], report.bounds["product_bound"])
        best = best_decoder_success(scheme, family, desc)
        assert best == Fraction(distinct, 28)
        worst = max(worst, distinct)
    report_line(4, True, f"20 schemes (t in 1..3), all ceilings hold, max T={worst}")


def test_c05_dq_statistics():
    """10^4 sampled (U, W, query) triples at n=300, delta=30."""
    n, delta = 300, 30
    report = dq_statistics(
        n, delta,
        scheme_gen=lambda s: random_queries(n, 1, 1.0 / (delta + 1), s),
        trials=10_000,
        seed=50_000,
    )
    mean_log = report.measured["mean_log_answers"]
    p_hat = report.measured["clique_hit_rate"]
    ok = report.passed
    report_line(
        5, ok,
        f"E[ln D_Q]={mean_log:.4f} (ceiling 4), clique hit rate={p_hat:.4f} "
        f"(ceiling 3/delta={3 / delta:.4f})",
    )
    assert report.measured["samples_log"] == 10_000
    assert mean_log <= 4.0 + 5 * report.measured["stderr_log_answers"]
    assert p_hat <= 3.0 / delta + 5 * report.measured["stderr_clique_hit_rate"]
    assert ok


def test_c06_alpha_product_bound():
    """Grid maximum never exceeds the closed-form peak, 1 <= w, r <= 8."""
    worst = -math.inf
    for w in range(1, 9):
        for r in range(1, 9):
            worst = max(worst, alpha_product_bound(w, r, 100_000))
    report_line(6, worst <= 1e-12, f"max deviation over 64 (w,r) pairs = {worst:.3e}")
    assert worst <= 1e-12


def exhaustive_expected_survivors(f: SetFamily, w: int, r: int) -> Fraction:
    """Independent oracle: enumerate every (A-tuple, B-tuple) with weights."""
    n = f.n
    total = Fraction(0)
    for a_tuple in itertools.product(range(n), repeat=w):
        distinct = frozenset(a_tuple)
        rest = [i for i in range(n) if i not in distinct]
        for b_tuple in itertools.product(rest, repeat=r):
            count = sum(
                1
                for x in range(f.ground_size)
                if all(x in f.sets[i] for i in a_tuple)
                and all(x not in f.sets[j] for j in b_tuple)
            )
            total += Fraction(count, n**w * len(rest) ** r)
    return total


def test_c07_survivor_count_expectation():
    """Monte-Carlo survivor counts match the exhaustive expectation."""
    rng = random.Random(60_000)
    cases = 0
    for i in range(12):
        n = rng.randint(4, 8)
        t = rng.randint(max(3, n.bit_length() + 1), 12)
        w = rng.randint(1, 2)
        r = rng.randint(1, 2)
        f = random_set_family(n, t, rng.uniform(0.25, 0.75), seed=derive_seed(11, i))
        trials = 4000
        report = survivor_count_experiment(f, CffParams(w, r), trials=trials, seed=derive_seed(12, i))
        exact = float(exhaustive_expected_survivors(f, w, r))
        mean = report.measured["mean_X"]
        sigma = math.sqrt(report.measured["var_X"] / trials)
        slack = max(5 * sigma, 1e-9)
        assert abs(mean - exact) <= slack, (n, t, w, r, mean, exact)
        flat = (w / (w + r)) ** w * t
        assert exact <= flat + 1e-12
        assert mean <= flat + slack
        cases += 1
    report_line(7, True, f"{cases} families: MC mean within 5 sigma of exact, under ceiling")


def test_c08_exact_t_ground_truth():
    expectations = [((2, 1, 1), 2), ((6, 1, 1), 4), ((3, 1, 2), 3)]
    times = []
    for (n, w, r), expected in expectations:
        start = time.time()
        assert exact_t(n, w, r, t_max=6) == expected
        times.append(time.time() - start)
        assert times[-1] < 60
    report_line(
        8, True,
        "minimal ground sizes 2/4/3 reproduced in "
        + "/".join(f"{dt:.2f}s" for dt in times),
    )


def test_c09_family_counting():
    """Count chains hold across the grid; exact counts match enumeration."""
    checked = 0
    compared = 0
    for n in range(6, 16):
        for delta in range(1, n // 3 + 1):
            report = family_count_check(n, delta)
            assert report.passed, report.format_text()
            checked += 1
            if clique_family_size(n, delta) <= 200_000:
                members = list(enumerate_clique_family(n, delta))
                assert len(members) == report.measured["exact_count"]
                compared += 1
    report_line(9, True, f"{checked} (n, delta) chains hold; {compared} verified by enumeration")


def _run_cli(args, cwd):
    result = subprocess.run(
        [sys.executable, "-m", "misrecon", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=cli_env(),
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_c10_cli_determinism(tmp_path):
    """Byte-identical outputs for identical seeds, including --threads 8.

    Each rerun happens in its own directory with identical relative paths so
    stdout is comparable byte for byte as well.
    """
    def rundir(tag):
        d = tmp_path / tag
        d.mkdir()
        return d

    # seeded generation
    graph_runs = []
    for tag in ("gen-a", "gen-b"):
        d = rundir(tag)
        stdout = _run_cli(
            ["generate", "--family", "random", "--n", "30", "--delta", "4",
             "--density", "0.6", "--seed", "7", "--out", "g.txt"],
            cwd=d,
        )
        graph_runs.append(((d / "g.txt").read_bytes(), stdout))
    assert graph_runs[0] == graph_runs[1]

    # trial-loop experiment under different thread counts
    report_runs = []
    for i, threads in enumerate(("1", "8", "1")):
        d = rundir(f"dq-{i}")
        _run_cli(
            ["experiment", "dq-stats", "--n", "60", "--delta", "6",
             "--trials", "300", "--seed", "6", "--threads", threads,
             "--json", "--out", "report.json"],
            cwd=d,
        )
        report_runs.append((d / "report.json").read_bytes())
    assert report_runs[0] == report_runs[1] == report_runs[2]

    # full reconstruction pipeline
    recon_runs = []
    for i in range(2):
        d = rundir(f"recon-{i}")
        stdout = _run_cli(
            ["reconstruct", "--n", "10", "--delta", "2", "--seed", "11",
             "--scheme-kind", "cff", "--out", "decoded.txt",
             "--transcript-out", "transcript.jsonl"],
            cwd=d,
        )
        recon_runs.append(
            ((d / "decoded.txt").read_bytes(),
             (d / "transcript.jsonl").read_bytes(), stdout)
        )
    assert recon_runs[0] == recon_runs[1]
    report_line(10, True, "generate/experiment/reconstruct byte-identical across reruns and threads")
