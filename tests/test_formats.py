"""Property tests for the five text formats and for bad input files.

Every format round-trips exactly, empty queries, sets and transcripts
included. Arbitrary text given to the CLI as a graph, scheme or set-family
file ends in exit 0, 1, 2 or 3 (never 4, an internal error).
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from misrecon.cli import main
from misrecon.coverfree import GROUND_CAP, SetFamily
from misrecon.graphs import Graph, graph_from_text, graph_to_text
from misrecon.oracle import Transcript
from misrecon.reconstruct import (
    DecodeResult,
    decode_result_from_text,
    decode_result_to_text,
)
from misrecon.schemes import QueryScheme

checked = settings(deadline=None, max_examples=100)


def _pairs(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 8))
    return Graph(n, draw(st.lists(st.sampled_from(_pairs(n)), unique=True))
                 if n > 1 else [])


@st.composite
def schemes(draw):
    n = draw(st.integers(0, 8))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    return QueryScheme(n, tuple(masks))


@st.composite
def set_families(draw):
    t = draw(st.integers(0, 8))
    sets = draw(st.lists(st.frozensets(st.integers(0, t - 1)) if t else
                         st.just(frozenset()), max_size=6))
    return SetFamily.from_sets(t, sets)


@st.composite
def transcripts(draw):
    n = draw(st.integers(0, 8))
    full = (1 << n) - 1
    entries = []
    for q, keep in draw(st.lists(st.tuples(st.integers(0, full),
                                           st.integers(0, full)), max_size=6)):
        entries.append((q, q & keep))
    return n, Transcript(n, tuple(entries))


@st.composite
def decode_results(draw):
    n = draw(st.integers(0, 8))
    labels = draw(st.lists(st.sampled_from("eu-"), min_size=len(_pairs(n)),
                           max_size=len(_pairs(n))))
    marked = list(zip(_pairs(n), labels))
    return DecodeResult(
        n,
        tuple(p for p, label in marked if label == "e"),
        tuple(p for p, label in marked if label == "u"),
    )


class TestRoundTrip:
    @checked
    @given(graphs())
    def test_graph(self, g):
        text = graph_to_text(g)
        assert graph_from_text(text) == g
        assert graph_to_text(graph_from_text(text)) == text

    @checked
    @given(schemes())
    def test_scheme(self, scheme):
        text = scheme.to_text()
        assert QueryScheme.from_text(text) == scheme
        assert QueryScheme.from_text(text).to_text() == text

    @checked
    @given(set_families())
    def test_set_family(self, family):
        text = family.to_text()
        assert SetFamily.from_text(text) == family
        assert SetFamily.from_text(text).to_text() == text

    @checked
    @given(transcripts())
    def test_transcript(self, drawn):
        n, transcript = drawn
        text = transcript.to_text()
        assert Transcript.from_text(n, text) == transcript
        assert Transcript.from_text(n, text).to_text() == text

    @checked
    @given(decode_results())
    def test_decoded_graph(self, result):
        text = decode_result_to_text(result)
        assert decode_result_from_text(text) == result
        assert decode_result_to_text(decode_result_from_text(text)) == text


# free text holds no decimal digits, so only the drawn headers and tokens
# below can name a size. A first header number of 14 or more has over 10^6
# matchings, which the duality check refuses before it enumerates graphs;
# 7 to 13 is left out, as it would enumerate up to 568,504 of them. A set
# family over more than GROUND_CAP elements is refused before anything per
# element is allocated, so huge headers are drawn too.
_free = st.text(st.characters(blacklist_categories=("Nd",)), max_size=30)
_token = st.one_of(st.integers(-3, 9).map(str), _free)
_line = st.lists(_token, max_size=4).map(" ".join)
_huge = st.integers(GROUND_CAP + 1, 10**15)
_header = st.tuples(
    st.one_of(st.integers(-3, 6), st.integers(14, 120), _huge), st.integers(-2, 6)
).map(lambda h: f"{h[0]} {h[1]}")
files = st.one_of(
    _free,
    st.tuples(st.one_of(_header, _line), st.lists(_line, max_size=6)).map(
        lambda parts: "\n".join([parts[0], *parts[1]]) + "\n"
    ),
)

COMMANDS = {
    "graph": ["reconstruct", "--n", "5", "--delta", "2", "--seed", "1", "--graph"],
    "scheme": ["experiment", "duality", "--delta", "1", "--scheme"],
    "family": ["experiment", "lemma7", "--w", "1", "--r", "1", "--seed", "1",
               "--trials", "20", "--family"],
}


def _exit_code(kind, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        argv = [*COMMANDS[kind], str(path), "--out", str(Path(tmp) / "out")]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                return main(argv)
            except SystemExit as exc:
                return exc.code


class TestArbitraryFiles:
    @settings(deadline=None, max_examples=200)
    @given(st.sampled_from(sorted(COMMANDS)), files)
    # C(99, 2) candidate edges, more than the recursion limit
    @example("scheme", "99 0\n")
    def test_never_an_internal_error(self, kind, text):
        assert _exit_code(kind, text) in (0, 1, 2, 3)

    @settings(deadline=None, max_examples=50)
    @given(
        _huge,
        st.lists(st.frozensets(st.integers(0, 9), max_size=3), min_size=2,
                 max_size=5, unique=True),
    )
    def test_family_over_ground_cap_exits_three(self, size, sets):
        # distinct sets, at least w + r = 2 of them: only the size is wrong
        lines = [" ".join(map(str, sorted(s))) for s in sets]
        text = "\n".join([f"{size} {len(sets)}", *lines]) + "\n"
        assert _exit_code("family", text) == 3

    def test_repeated_edge_line_exits_two(self):
        # the header counts two edges; the one edge twice is not two edges
        assert _exit_code("graph", "5 2\n0 1\n0 1\n") == 2
        assert _exit_code("graph", "5 2\n0 1\n1 2\n") == 0
