"""Smoke tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/smoke.py

Every workload runs at toy size, traced and untraced, with identical
counters; the tracer wraps and restores every binding; the CLI cross-check
and the recorded verdicts hold; BENCHMARK.json keeps to its schema.
"""

from __future__ import annotations

import json
import re

import pytest

import run

run.load_misrecon()

import misrecon  # noqa: E402
from misrecon import coverfree, oracle, reconstruct, schemes  # noqa: E402

from tracer import Tracer, analyse, wrapped_bindings  # noqa: E402
from workloads import REGIMES, Workload, load_reference  # noqa: E402

TOY = {
    "recon-large": {**REGIMES["recon-large"], "n": 60, "delta": 4, "pool": [1, 2]},
    "recon-trials": {**REGIMES["recon-trials"], "n": 40, "delta": 3, "pool": [0, 1]},
    "exhaustive": {
        **REGIMES["exhaustive"],
        "cff": {"n": 7, "delta": 1, "cli_seeds": [1]},
        "c01": {**REGIMES["exhaustive"]["c01"], "n": 4, "graphs": [0, 5]},
        "c02": {**REGIMES["exhaustive"]["c02"], "slice": [17, 18]},
        "profile": {"n": 6, "delta": 2, "queries": 2, "p": 0.5, "seeds": [1]},
    },
}


def _tracer() -> Tracer:
    return Tracer(run.TRACED_FUNCTIONS, run.TRACED_METHODS)


def _totals(data) -> dict:
    totals: dict = {}
    for o in data.outcomes:
        for key, value in o.counters.items():
            totals[key] = totals.get(key, 0) + value
    return totals


@pytest.mark.parametrize("name", sorted(TOY))
def test_toy_workload_counters_same_traced_and_untraced(name):
    wl = Workload(name, TOY[name], load_reference())
    plain = run.timed_loop(wl, wl.instances(3), 0)
    tracer = _tracer()
    traced = run.timed_loop(wl, wl.instances(3), 0, tracer)
    for data in (plain, traced):
        assert not data.errors
        assert all(not o.errors for o in data.outcomes), [o.errors for o in data.outcomes]
    assert _totals(plain) == _totals(traced)
    assert [o.digest for o in plain.outcomes] == [o.digest for o in traced.outcomes]
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["per_layer"]]
    metrics = run.per_layer_metrics(traced, tracer, f"smoke-{name}", names)
    assert set(metrics) == set(names)
    assert 0 <= metrics["trace.unattributed_share"] < 0.5  # toy instances take ms
    assert metrics["reconstruct.missed_edges"] == 0
    assert not wrapped_bindings()


def test_tracer_wraps_every_binding_and_restores_it():
    originals = {
        (schemes, "is_cover_free"): coverfree.is_cover_free,
        (schemes, "is_mis"): oracle.is_mis,
        (reconstruct, "run_scheme"): oracle.run_scheme,
        (reconstruct, "is_mis"): oracle.is_mis,
        (misrecon, "decode"): reconstruct.decode,
        (oracle.RandomMisPolicy, "answer"): vars(oracle.RandomMisPolicy)["answer"],
    }
    tracer = _tracer()
    tracer.install()
    try:
        for (owner, attr), original in originals.items():
            assert vars(owner)[attr] is not original, attr
            assert vars(owner)[attr].__wrapped__ is original, attr
        assert wrapped_bindings()
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, attr
    assert not wrapped_bindings()


def test_nested_spans_link_to_their_parents():
    tracer = _tracer()
    scheme = schemes.random_queries(5, 4, 0.5, seed=1)
    tracer.install()
    try:
        schemes.duality_check(scheme, 1)
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    analysis = analyse(spans, [(spans.start.min(), spans.end.max())])
    names = [spans.names[c] for c in spans.code]
    top = names.index("schemes.duality")
    assert analysis.parent[top] == -1
    for i, name in enumerate(names):
        if name in ("schemes.check", "coverfree.check"):
            assert analysis.parent[i] == top
        if name == "graphs.enum":
            assert names[analysis.parent[i]] == "schemes.check"
    assert 0 <= analysis.self_total["schemes.duality"] <= sum(analysis.incl["schemes.duality"])
    assert analysis.unattributed < 0.5


@pytest.mark.parametrize("regimes", [TOY, REGIMES], ids=["toy", "full"])
def test_decoded_text_matches_the_cli(regimes):
    wl = Workload("recon-large", regimes["recon-large"], load_reference())
    insts = wl.instances(5)
    data = run.timed_loop(wl, insts[:1], 0)
    assert not data.outcomes[0].errors
    (argv, expected), = wl.cli_cases(insts, data.outcomes)
    assert run.cli_decoded_digest(argv) == expected


def test_real_exhaustive_units_match_recorded_verdicts():
    wl = Workload("exhaustive", REGIMES["exhaustive"], load_reference())
    keys = {"search", "graph/0", "graph/252", "duality/2", "profile/1"}
    for inst in [i for i in wl.pool() if i.key in keys]:
        outcome = wl.check(inst, wl.execute(inst), None)
        assert not outcome.errors
        assert outcome.reference == "match", inst.key


def test_benchmark_json_schema():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert {w["name"] for w in bench["workloads"]} <= set(REGIMES)
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = []
    for section in ("end_to_end", "per_layer"):
        for m in bench[section]:
            assert name_re.match(m["name"]) and unit_re.match(m["unit"]), m
            assert m["better"] in ("higher", "lower")
            names.append(m["name"])
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])
