"""What the benchmark under perfbench/ relies on in the package.

perfbench/run.py names the functions and policy methods its tracer wraps,
perfbench/smoke.py checks that some of them are also bound under other
module names, and perfbench/workloads.py takes len() of queries and answers,
reads decode results and their text, duality and profile-count reports, and
calls the scheme builders by keyword.
perfbench/smoke.py takes seconds and is not part of this suite, so these
checks keep a library change from breaking the benchmark unseen. run.py is
read and executed in a fresh namespace, so no file under perfbench/ is
written (importing it would cache its bytecode there).
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

import misrecon
from misrecon import coverfree, lowerbounds, oracle, reconstruct, schemes
from misrecon.graphs import (
    clique_family_desc, clique_family_size, enumerate_clique_family, gen_bounded_degree,
)
from misrecon.util import iter_bits, mask_from_members

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _load_run() -> dict:
    module = types.ModuleType("perfbench_run")
    module.__file__ = str(RUN_PY)
    # its dataclasses look their module up in sys.modules while being built
    sys.modules[module.__name__] = module
    try:
        exec(compile(RUN_PY.read_text(), str(RUN_PY), "exec"), vars(module))
    finally:
        del sys.modules[module.__name__]
    return vars(module)


RUN = _load_run()


@pytest.mark.parametrize("target", sorted(RUN["TRACED_FUNCTIONS"]))
def test_traced_function_resolves(target):
    module, attr = target.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(f"misrecon.{module}"), attr))


@pytest.mark.parametrize("target", sorted(RUN["TRACED_METHODS"]))
def test_traced_method_is_defined_on_its_own_class(target):
    module, cls_name, attr = target.rsplit(".", 2)
    cls = getattr(importlib.import_module(f"misrecon.{module}"), cls_name)
    assert callable(vars(cls)[attr])


def test_aliases_the_smoke_tests_unwrap():
    assert schemes.is_mis is oracle.is_mis
    assert reconstruct.is_mis is oracle.is_mis
    assert reconstruct.run_scheme is oracle.run_scheme
    assert schemes.is_cover_free is coverfree.is_cover_free
    assert misrecon.decode is reconstruct.decode


@pytest.mark.parametrize("kind", ["greedy-lex", "random"])
def test_queries_and_answers_have_a_size(kind):
    g = gen_bounded_degree(12, 3, 0.6, seed=1)
    scheme = schemes.random_queries(12, 8, 0.4, seed=2)
    transcript = oracle.run_scheme(g, scheme, oracle.make_policy(kind, seed=3))
    assert [len(q) for q in scheme.queries] == [m.bit_count() for m in scheme.masks]
    assert [len(a) for _, a in transcript.entries] == [
        a.bit_count() for _, a in transcript.masks
    ]
    # each view element is its mask's members in ascending order
    assert scheme.queries == tuple(tuple(iter_bits(m)) for m in scheme.masks)
    assert transcript.entries == tuple(
        (tuple(iter_bits(q)), tuple(iter_bits(a))) for q, a in transcript.masks
    )


def test_decode_result_surface_the_workloads_read():
    g = gen_bounded_degree(6, 2, 0.8, seed=4)
    scheme = schemes.random_queries(6, 3, 0.5, seed=5)
    result = reconstruct.decode(6, oracle.run_scheme(g, scheme, oracle.GreedyLexPolicy()))
    assert not result.complete and result.graph is None
    assert all(type(p) is tuple and len(p) == 2 for p in result.edges + result.unknown_pairs)
    text = reconstruct.decode_result_to_text(result)
    assert isinstance(text, str) and text.startswith(f"6 {len(result.edges)}\n")
    full = schemes.cff_scheme(6, 2, seed=1)
    complete = reconstruct.decode(6, oracle.run_scheme(g, full, oracle.GreedyLexPolicy()))
    assert complete.complete and complete.graph == g


def test_duality_report_surface_the_workloads_read():
    pairs = tuple(mask_from_members(4, (u, v)) for u in range(4) for v in range(u + 1, 4))
    for scheme, is_scheme in ((schemes.QueryScheme(4, pairs), True),
                              (schemes.random_queries(5, 6, 0.5, seed=1), False)):
        report = schemes.duality_check(scheme, 1)
        verdict = [report.is_scheme, report.dual_cover_free_necessary,
                   report.dual_cover_free_sufficient, report.ok]
        assert all(type(v) is bool for v in verdict)
        assert report.is_scheme is is_scheme and report.ok


def test_scheme_builders_take_the_keywords_the_workloads_pass():
    def builder(n_, w_, r_, seed_):
        return coverfree.random_cff(n_, w_, r_, c=2.0, seed=seed_)

    scheme = schemes.cff_scheme(8, 1, builder=builder, seed=0, verify=True)
    assert isinstance(scheme, schemes.QueryScheme) and scheme.n == 8


def test_profile_count_surface_the_workloads_read():
    desc = clique_family_desc(7, 2)
    scheme = schemes.random_queries(7, 3, 0.5, seed=1)
    report = lowerbounds.profile_count(scheme, list(enumerate_clique_family(7, 2)), desc)
    assert type(report.measured["distinct_transcripts"]) is int
    assert report.measured["family_size"] == clique_family_size(7, 2)
    assert report.passed is True
