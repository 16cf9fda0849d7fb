"""Graph type, generators, adversarial families, and the text format."""

import inspect
import itertools
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misrecon import graphs
from misrecon.graphs import (
    AdversarialFamilyDesc,
    Graph,
    enumerate_bounded_degree_graphs,
    enumerate_clique_family,
    enumerate_family,
    gen_bounded_degree,
    graph_from_text,
    graph_to_text,
    sample_clique_family,
    sample_blocked_clique_family,
    clique_family_size,
)
from misrecon.util import CapExceededError, iter_bits
from scalar_reference import induced_mis_context, max_degree


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


class TestGraph:
    def test_no_self_loops(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_edges_canonical(self):
        g = Graph(4, [(2, 0), (0, 2), (3, 1)])
        assert g.edges == ((0, 2), (1, 3))
        assert g.adjacency_masks[2] >> 0 & 1 and g.adjacency_masks[0] >> 2 & 1

    @settings(deadline=None, max_examples=150)
    @given(data=st.data(), n=st.integers(2, 12))
    def test_edges_equal_sorted_canonical_set(self, data, n):
        # duplicates and reversed pairs collapse to one (u, v) with u < v
        vertex = st.integers(0, n - 1)
        pairs = data.draw(
            st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]))
        )
        canonical = sorted({(min(e), max(e)) for e in pairs})
        g = Graph(n, pairs)
        assert g.edges == tuple(canonical)
        assert g.num_edges == len(canonical)

    def test_max_degree_examples(self):
        for g, want in ((Graph.empty(5), 0), (Graph.complete(4), 3), (path_graph(3), 2)):
            assert max_degree(g) == g.delta == want

    def test_delta_bounds(self):
        for g in (Graph.empty(1), Graph.complete(6), path_graph(4)):
            assert 0 <= g.delta <= g.n - 1

    @pytest.mark.parametrize(
        "n, edges, message",
        [(-1, [], "n must be >= 0"), (3, [(0, 5)], "edge (0,5) outside vertex range")],
    )
    def test_bad_vertex_count_or_edge_rejected(self, n, edges, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Graph(n, edges)

    def test_from_masks_takes_the_masks_only(self):
        # the maximum degree is worked out from the masks, never passed in
        assert list(inspect.signature(Graph._from_masks).parameters) == ["masks"]

    def test_delta_is_the_recomputed_maximum_degree(self):
        blocked = AdversarialFamilyDesc(n=8, delta=3, clique=0b1, forced_block=0b10)
        members = [*enumerate_bounded_degree_graphs(5, 2), *enumerate_family(blocked)]
        for g in members:
            assert g.delta == max_degree(g)

    def test_equality_and_hash(self):
        assert Graph(3, [(0, 1)]) == Graph(3, [(1, 0)])
        assert hash(Graph(3, [(0, 1)])) == hash(Graph(3, [(0, 1)]))
        assert Graph(3, [(0, 1)]) != Graph(4, [(0, 1)])


class TestInducedContext:
    def test_triangle_restriction(self):
        ctx = induced_mis_context(Graph.complete(3), 0b011)
        assert ctx == {0: 0b010, 1: 0b001}

    def test_empty_query(self):
        assert induced_mis_context(Graph.complete(5), 0) == {}

    def test_path_endpoints(self):
        ctx = induced_mis_context(path_graph(3), 0b101)
        assert ctx == {0: 0, 2: 0}


class TestBoundedDegreeGenerator:
    def test_degree_zero_gives_empty(self):
        g = gen_bounded_degree(10, 0, 0.7, seed=1)
        assert g.num_edges == 0

    def test_full_density_unbounded_gives_complete(self):
        assert gen_bounded_degree(5, 4, 1.0, seed=3) == Graph.complete(5)

    @pytest.mark.parametrize("seed", range(100))
    def test_degree_cap_respected(self, seed):
        g = gen_bounded_degree(200, 8, 0.5, seed=seed)
        assert g.delta <= 8

    def test_deterministic(self):
        assert gen_bounded_degree(30, 4, 0.5, seed=9) == gen_bounded_degree(
            30, 4, 0.5, seed=9
        )

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_bounded_degree(5, 10, 0.5, seed=0)
        with pytest.raises(ValueError):
            gen_bounded_degree(5, 2, 1.5, seed=0)

    def test_vertex_pairs_over_cap_refused(self, set_cap):
        # the cap admits the n = 2000 graphs of the large reconstruction regime
        assert math.comb(2000, 2) <= graphs.VERTEX_PAIR_CAP < math.comb(30000, 2)
        set_cap(graphs, "VERTEX_PAIR_CAP", 10)
        assert gen_bounded_degree(5, 4, 1.0, seed=3) == Graph.complete(5)
        with pytest.raises(CapExceededError, match=r"^15 vertex pairs of n=6 exceed cap 10$"):
            gen_bounded_degree(6, 2, 0.5, seed=0)


class TestCliqueFamilySampler:
    def test_single_clique_vertex_gets_exactly_two_neighbours(self):
        g, desc = sample_clique_family(9, 2, seed=4)
        assert desc.clique == 0b1
        assert g.degree(0) == 2
        assert g.num_edges == 2

    def test_delta_one_single_edge(self):
        g, desc = sample_clique_family(6, 1, seed=7)
        assert g.num_edges == 1
        assert 0 in dict(enumerate(g.edges))[0]

    @pytest.mark.parametrize("seed", range(100))
    def test_outside_independent_and_degree_bounded(self, seed):
        g, desc = sample_clique_family(12, 4, seed=seed)
        assert g.delta <= 4
        for u, v in g.edges:
            assert desc.clique >> u & 1 or desc.clique >> v & 1
        # every clique vertex is saturated
        for u in iter_bits(desc.clique):
            assert g.degree(u) == 4

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            sample_clique_family(2, 2, seed=0)  # one outside vertex, two slots


class TestForcedBlockSampler:
    def test_forced_sizes_delta_three(self):
        g, desc = sample_blocked_clique_family(12, 3, seed=2)
        assert desc.clique.bit_count() == 1 and desc.forced_block.bit_count() == 1
        (u,) = iter_bits(desc.clique)
        (w,) = iter_bits(desc.forced_block)
        assert g.adjacency_masks[u] >> w & 1
        assert g.degree(u) == 3

    @pytest.mark.parametrize("seed", range(100))
    def test_degree_audit(self, seed):
        g, desc = sample_blocked_clique_family(20, 5, seed=seed)
        for u in iter_bits(desc.clique):
            assert g.degree(u) == 5
        for w in iter_bits(desc.forced_block):
            assert g.degree(w) == desc.clique.bit_count()
        for u in iter_bits(desc.clique):
            for w in iter_bits(desc.forced_block):
                assert g.adjacency_masks[u] >> w & 1
        # V \ U independent
        umask = desc.clique
        for a, b in g.edges:
            assert umask >> a & 1 or umask >> b & 1
        assert g.delta <= 5

    def test_delta_below_three_rejected(self):
        with pytest.raises(ValueError):
            sample_blocked_clique_family(10, 2, seed=0)


class TestFamilyEnumeration:
    def test_counts_match_closed_form(self):
        assert sum(1 for _ in enumerate_clique_family(9, 2)) == 28  # C(8,2)
        assert sum(1 for _ in enumerate_clique_family(4, 1)) == 3  # C(3,1)
        assert sum(1 for _ in enumerate_clique_family(5, 4)) == 1  # C(3,3)^2

    @pytest.mark.parametrize(
        "n,delta", [(n, d) for n in range(4, 10) for d in range(1, 4) if n - math.ceil(d / 2) >= d]
    )
    def test_distinct_members_and_formula(self, n, delta):
        members = list(enumerate_clique_family(n, delta))
        assert len(members) == len(set(members)) == clique_family_size(n, delta)
        for g in members:
            assert g.delta <= delta

    def test_cap_enforced(self, set_cap):
        set_cap(graphs, "ENUM_CAP", 1000)
        with pytest.raises(CapExceededError):
            list(enumerate_clique_family(40, 8))

    def test_clique_family_enumerator_is_a_generator_function(self):
        # perfbench/tracer.py consumes a generator function inside its span;
        # a plain function that returned a generator would move the
        # enumeration out of the graphs.enum span
        assert inspect.isgeneratorfunction(enumerate_clique_family)

    def test_forced_block_enumeration_count(self):
        desc = AdversarialFamilyDesc(n=12, delta=3, clique=0b01, forced_block=0b10)
        assert desc.per_clique_free_slots == 2
        members = list(enumerate_family(desc))
        assert len(members) == len(set(members)) == math.comb(10, 2) == 45

    def test_bounded_degree_graph_counts(self):
        # independent oracle: filter all edge subsets by degree
        n = 5
        pairs = list(itertools.combinations(range(n), 2))
        for delta in (1, 2):
            expected = 0
            for bits in range(1 << len(pairs)):
                deg = [0] * n
                ok = True
                for i, (u, v) in enumerate(pairs):
                    if bits >> i & 1:
                        deg[u] += 1
                        deg[v] += 1
                for d in deg:
                    if d > delta:
                        ok = False
                        break
                expected += ok
            got = enumerate_bounded_degree_graphs(n, delta)
            assert len(got) == len(set(got)) == expected
            # stored unchecked: each must equal its rebuild from the edge list
            for g in got:
                again = Graph(n, g.edges)
                assert (again, again.delta) == (g, g.delta) and g.delta <= delta

    def test_bounded_degree_enumeration_is_shared_and_immutable(self):
        first = enumerate_bounded_degree_graphs(5, 2)
        assert isinstance(first, tuple)
        assert enumerate_bounded_degree_graphs(5, 2) is first

    def test_bounded_degree_cap_raises_on_every_call(self, set_cap):
        # 1 + 6 + 3 graphs on 4 vertices have max degree <= 1
        set_cap(graphs, "ENUM_CAP", 10)
        assert len(enumerate_bounded_degree_graphs(4, 1)) == 10
        set_cap(graphs, "ENUM_CAP", 9)
        for _ in range(2):
            with pytest.raises(CapExceededError):
                enumerate_bounded_degree_graphs(4, 1)

    def test_matchings_over_cap_refused_before_recursing(self, set_cap):
        # the T(n) = T(n-1) + (n-1) T(n-2) matchings are enumerated whenever
        # delta >= 1, so T(n) > cap is refused up front
        counts = [len(enumerate_bounded_degree_graphs(n, 1)) for n in range(8)]
        assert counts == [1, 1, 2, 4, 10, 26, 76, 232]
        # C(46, 2) candidate edges, one recursion level each
        with pytest.raises(CapExceededError):
            enumerate_bounded_degree_graphs(46, 1)
        set_cap(graphs, "ENUM_CAP", 232)
        assert len(enumerate_bounded_degree_graphs(7, 1)) == 232
        set_cap(graphs, "ENUM_CAP", 231)
        with pytest.raises(CapExceededError):
            enumerate_bounded_degree_graphs(7, 3)


class TestDescriptorValidation:
    def test_block_disjointness_enforced(self):
        with pytest.raises(ValueError):
            AdversarialFamilyDesc(
                n=9,
                delta=3,
                clique=0b1,
                forced_block=0b1,
            )

    @pytest.mark.parametrize(
        "clique, block, message",
        [
            (1 << 9, 0b10, "outside vertices 0..n-1"),
            (0b1, 1 << 9, "outside vertices 0..n-1"),
            (-1, 0b10, "outside vertices 0..n-1"),
            (0b11, 0b100, "sizes do not fit delta"),
            (0b1, 0b110, "sizes do not fit delta"),
        ],
    )
    def test_masks_checked(self, clique, block, message):
        with pytest.raises(ValueError, match=message):
            AdversarialFamilyDesc(n=9, delta=3, clique=clique, forced_block=block)

    def test_zero_block_is_the_plain_family(self):
        desc = AdversarialFamilyDesc(n=9, delta=3, clique=0b11)
        assert desc.parts() == ((0, 1), (), list(range(2, 9)))
        assert desc.per_clique_free_slots == 2


class TestTextFormat:
    def test_round_trip_identity(self):
        g = Graph(6, [(0, 3), (1, 2), (4, 5), (0, 1)])
        text = graph_to_text(g)
        assert graph_from_text(text) == g
        assert graph_to_text(graph_from_text(text)) == text

    def test_format_shape(self):
        text = graph_to_text(Graph(3, [(0, 2)]))
        assert text == "3 1\n0 2\n"

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            graph_from_text("")
        with pytest.raises(ValueError):
            graph_from_text("3 2\n0 1\n")
        with pytest.raises(ValueError):
            graph_from_text("3 1\n1 0\n")
        # the header counts two edges, and the file names one edge twice
        with pytest.raises(ValueError, match="repeated edge line: '0 1'"):
            graph_from_text("3 2\n0 1\n0 1\n")

    def test_expected_size_checked_before_allocation(self):
        assert graph_from_text("3 1\n0 2\n", n=3) == Graph(3, [(0, 2)])
        # a header of 10^15 vertices would ask for petabytes if it were built
        with pytest.raises(ValueError, match="does not match n=5: its header says 10{15}$"):
            graph_from_text(f"{10**15} 0\n", n=5)
