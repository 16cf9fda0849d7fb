"""Desk-scale counting experiments behind the query lower bounds.

The hidden-clique families admit very few distinct answer profiles: an
adversarial oracle answers each query with the outside part of the query,
plus at most one clique vertex. Counting distinct full transcripts over an
exhaustively enumerated family therefore bounds the success probability of
*any* decoder under the uniform prior, and the per-query answer-count
statistics (the D_Q variables) quantify how little a random hidden clique
leaks to a non-adaptive scheme.

All family counts are exact big-integer arithmetic; success ratios are
exact rationals.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, Iterable

from .graphs import AdversarialFamilyDesc, Graph, family_shape
from .oracle import AdversarialCliquePolicy, run_scheme
from .reports import BoundCheck, ExperimentReport
from .schemes import QueryScheme
from .util import derive_seed, mask_from_members, run_seeded_trials


def _transcript_profiles(
    scheme: QueryScheme, family: Iterable[Graph], desc: AdversarialFamilyDesc
) -> tuple[int, int]:
    """(number of distinct full transcripts, family size) under the clique adversary."""
    policy = AdversarialCliquePolicy(desc)
    profiles = set()
    size = 0
    for g in family:
        transcript = run_scheme(g, scheme, policy)
        profiles.add(tuple(a.mask for _, a in transcript.entries))
        size += 1
    if size == 0:
        raise ValueError("family is empty")
    return len(profiles), size


def per_query_answer_bound(scheme: QueryScheme, desc: AdversarialFamilyDesc) -> int:
    """Product over queries of the answer-count ceiling for the described family.

    A query meeting the forced block has exactly one possible answer;
    otherwise at most |Q cap U| + 1 answers are possible.
    """
    bound = 1
    for q in scheme.queries:
        if desc.forced_block is not None and not q.isdisjoint(desc.forced_block):
            continue
        bound *= len(q & desc.clique) + 1
    return bound


def best_decoder_success(
    scheme: QueryScheme, family: Iterable[Graph], desc: AdversarialFamilyDesc
) -> Fraction:
    """Optimal success probability of any deterministic decoder, uniform prior.

    Equals (distinct transcripts)/(family size): a decoder can answer
    correctly on at most one family member per transcript, and mapping each
    transcript to one of its preimages achieves that.
    """
    distinct, size = _transcript_profiles(scheme, family, desc)
    return Fraction(distinct, size)


def profile_count(
    scheme: QueryScheme, family: Iterable[Graph], desc: AdversarialFamilyDesc
) -> ExperimentReport:
    """Count distinct transcripts over the family and check the answer-count ceilings."""
    distinct, size = _transcript_profiles(scheme, family, desc)
    t = len(scheme)
    product_bound = per_query_answer_bound(scheme, desc)
    flat_bound = (desc.delta + 1) ** t
    best = Fraction(distinct, size)
    checks = (
        BoundCheck(
            "distinct_transcripts_le_product_bound",
            distinct, "<=", product_bound, distinct <= product_bound,
        ),
        BoundCheck(
            "distinct_transcripts_le_flat_bound",
            distinct, "<=", flat_bound, distinct <= flat_bound,
        ),
    )
    return ExperimentReport(
        name="transcript-profile-count",
        parameters={"n": scheme.n, "delta": desc.delta, "queries": t},
        measured={
            "distinct_transcripts": distinct,
            "family_size": size,
            "best_decoder_success": best,
        },
        bounds={"product_bound": product_bound, "flat_bound": flat_bound},
        checks=checks,
    )


def dq_statistics(
    n: int,
    delta: int,
    scheme_gen: Callable[[int], QueryScheme],
    trials: int,
    seed: int,
) -> ExperimentReport:
    """Sample (U, W, query) triples and measure the answer-count statistics.

    Per trial, U and W are uniform disjoint sets of sizes ceil(delta/3) and
    floor(delta/3), a scheme is drawn, and for each query Q the answer count
    D_Q is 1 when Q meets W and |Q cap U| + 1 otherwise. Reports the
    empirical mean of ln D_Q (checked against the ceiling 4) and the
    empirical frequency of {u in Q, W disjoint from Q} per clique vertex
    (checked against the ceiling 3/delta).
    """
    if trials < 1:
        raise ValueError("need trials >= 1")
    u_size, w_size, _ = family_shape(delta, blocked=True)
    if u_size + w_size > n:
        raise ValueError("n too small for the requested delta")

    def trial(trial_seed: int) -> tuple[list[float], int]:
        rng = random.Random(trial_seed)
        picked = rng.sample(range(n), u_size + w_size)
        u_mask = mask_from_members(picked[:u_size])
        w_mask = mask_from_members(picked[u_size:])
        scheme = scheme_gen(derive_seed(trial_seed, 1))
        logs: list[float] = []
        hits = 0
        for q in scheme.queries:
            if q.mask & w_mask:
                logs.append(0.0)
            else:
                in_u = (q.mask & u_mask).bit_count()
                logs.append(math.log(in_u + 1))
                hits += in_u
        return logs, hits

    results = run_seeded_trials(trial, trials, seed)
    logs = [x for lg, _ in results for x in lg]
    if not logs:
        raise ValueError("scheme generator produced no queries")
    hits = sum(h for _, h in results)
    samples_hit = len(logs) * u_size
    mean_log = sum(logs) / len(logs)
    var_log = sum((x - mean_log) ** 2 for x in logs) / len(logs)
    se_log = math.sqrt(var_log / len(logs))
    p_hat = hits / samples_hit
    se_p = math.sqrt(p_hat * (1.0 - p_hat) / samples_hit)
    log_bound = 4.0
    p_bound = 3.0 / delta
    checks = (
        BoundCheck(
            "mean_log_answers_le_4", mean_log, "<=",
            log_bound + 5 * se_log, mean_log <= log_bound + 5 * se_log,
        ),
        BoundCheck(
            "clique_hit_rate_le_3_over_delta", p_hat, "<=",
            p_bound + 5 * se_p, p_hat <= p_bound + 5 * se_p,
        ),
    )
    return ExperimentReport(
        name="answer-count-statistics",
        parameters={
            "n": n, "delta": delta, "clique_size": u_size,
            "block_size": w_size, "trials": trials, "seed": seed,
        },
        measured={
            "samples_log": len(logs),
            "samples_hit": samples_hit,
            "mean_log_answers": mean_log,
            "stderr_log_answers": se_log,
            "clique_hit_rate": p_hat,
            "stderr_clique_hit_rate": se_p,
        },
        bounds={"log_answers_ceiling": log_bound, "hit_rate_ceiling": p_bound},
        checks=checks,
    )


def _chain_checks(values) -> tuple[BoundCheck, ...]:
    """Checks display_i >= display_{i+1}, decided on the exact values.

    Entries are (name, display value, exact value); the display values are
    only reporting output.
    """
    checks = []
    for (name_a, disp_a, val_a), (name_b, disp_b, val_b) in zip(values, values[1:]):
        checks.append(
            BoundCheck(f"{name_a}_ge_{name_b}", disp_a, ">=", disp_b, val_a >= val_b)
        )
    return tuple(checks)


def family_count_check(n: int, delta: int, variant: str = "clique") -> ExperimentReport:
    """Exact hidden-clique family size and its closed-form lower-bound chain.

    For the plain clique variant the chain is
        C(n-|U|, d-|U|+1)^|U| >= C(n-d, |U|)^|U| >= ((n-d)/|U|)^(|U|^2)
        >= ((n-d)/d)^(d^2/4),
    with |U| = ceil(d/2); the clique-block variant uses |U| = ceil(d/3),
    |W| = floor(d/3) and final exponent d^2/9. All comparisons are exact:
    fractional exponents are removed by raising the whole chain to the 4th
    (resp. 9th) power.
    """
    if variant not in ("clique", "clique-block"):
        raise ValueError("variant must be 'clique' or 'clique-block'")
    blocked = variant == "clique-block"
    u_size, w_size, slots = family_shape(delta, blocked)
    power = 9 if blocked else 4
    if n - u_size - w_size < slots:
        raise ValueError("n too small for the neighbour choices")
    exact = math.comb(n - u_size - w_size, slots) ** u_size
    binom_bound = math.comb(n - delta, u_size) ** u_size
    ratio_bound = Fraction(n - delta, u_size) ** (u_size * u_size)
    final_display = ((n - delta) / delta) ** (delta * delta / power)
    # final link has exponent delta^2/power; compare chain^power exactly
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


def bound_table(
    n_values: Iterable[int], delta_values: Iterable[int]
) -> ExperimentReport:
    """Tabulate the raw (constant-free) query-count formulas for reporting.

    Lower bounds clamp delta at n/3 (rows are flagged) since the counting
    arguments are applied with that effective degree beyond it. No pass/fail
    semantics; the table is reporting output only.
    """
    n_values = list(n_values)
    delta_values = list(delta_values)
    rows = []
    for n in n_values:
        for delta in delta_values:
            if delta < 1 or delta > n - 1:
                continue
            clamped = delta > n / 3
            de = n / 3 if clamped else float(delta)
            log_ratio = math.log(n / de)
            rows.append(
                {
                    "n": n,
                    "delta": delta,
                    "clamped": clamped,
                    "delta_effective": de,
                    "lb_rand_adaptive": de * de * log_ratio / math.log(de + 1),
                    "lb_rand_nonadaptive": de * de * log_ratio,
                    "lb_det_nonadaptive": min(
                        float(n * n),
                        de**3 * math.log(n) / math.log(de + 1),
                    ),
                    "ub_rand_nonadaptive": delta * delta * math.log(n),
                    "ub_det_nonadaptive": delta**3 * math.log(n),
                }
            )
    if not rows:
        raise ValueError("no (n, delta) pair satisfies 1 <= delta <= n - 1")
    return ExperimentReport(
        name="query-bound-table",
        parameters={
            "n_values": list(n_values),
            "delta_values": list(delta_values),
        },
        measured={"rows": rows},
    )


def bound_table_csv(report: ExperimentReport) -> str:
    rows = report.measured["rows"]
    lines = [",".join(rows[0])]
    for row in rows:
        lines.append(",".join(
            f"{v:.6f}" if isinstance(v, float) else str(v) for v in row.values()
        ))
    return "\n".join(lines) + "\n"
