"""Golden outputs: seeded runs must write byte-identical files.

The `reconstruct` digests were recorded before the scheme builder, the
oracle and the decoder were rewritten with batched kernels, the
`profile-count` digest before run_scheme answered each distinct query once,
the n=200 `generate` digest while the generator still called Random.shuffle
and the n=2000 one while it still shuffled (u, v) tuples, and
the hidden-clique digests while the plain and blocked families were still
built by two separate samplers and enumerators, and the n=200 default-CFF
digests while the dual was still built by a walk over each set's members.
The random-MIS digests marked below were re-recorded when that oracle moved
to keyed hash ranks, and the alpha-bound digest when its peak moved to log
space. A change that alters any of them on purpose must say
so in CHANGES.md and record new digests here.
"""

import hashlib

import pytest

from misrecon.cli import main

GOLDEN = {
    # re-recorded when random-MIS answers moved to keyed hash ranks
    "randomized-random": (
        ["--n", "200", "--delta", "8", "--density", "0.5",
         "--scheme-kind", "randomized", "--policy", "random", "--seed", "11"],
        "dcb294b7b257ad01ab82132256047f068d871a81d26bd22ae2472c11655680b2",
        "733d193e615794c6bdf52c891e393d68f70d8bf4a8d9b2c46929b196dbb2ea81",
    ),
    "randomized-greedy-lex": (
        ["--n", "200", "--delta", "8", "--density", "0.5",
         "--scheme-kind", "randomized", "--policy", "greedy-lex", "--seed", "12"],
        "6befa85f2ec9754123269b4ecc9283b51a801e884111d0b7d68ddf92ee44aa2c",
        "723aa165870578bc4bc7629da0a9e3c4cb01d5f841fdfd5062fdf9dea38f6073",
    ),
    "cff-greedy-lex": (
        ["--n", "12", "--delta", "2", "--scheme-kind", "cff", "--seed", "13"],
        "0348428ae26eb517118d94ec9f4b6a8a0ca57af456ffcc0498792ec6874c4206",
        "fb77532fa87ce2e815dc1a49e73bf6df5e244e08ddba416e39f1a5351c8e743b",
    ),
    # 457 of its 1359 queries induce no edge; the decoded file does not
    # depend on the oracle, and the transcript was re-recorded when random-MIS
    # answers moved from a reseeded Mersenne Twister to keyed hash ranks
    "cff-random": (
        ["--n", "12", "--delta", "2", "--scheme-kind", "cff", "--policy", "random",
         "--seed", "13"],
        "0348428ae26eb517118d94ec9f4b6a8a0ca57af456ffcc0498792ec6874c4206",
        "b68ea6874117313b496f652f00c84ae5df279173df7bf3b43dda6e83cb79177f",
    ),
    # the CLI defaults: the dual of random_cff's 200 sets over 101,711
    # elements (too many to verify as (2,16)-cover-free), answered by greedy-lex
    "cff-greedy-lex-n200": (
        ["--n", "200", "--delta", "8", "--density", "0.5", "--seed", "1"],
        "cee5ab37e96dcaa24744b02bd17b160e3ee7b7057fe73975408ef12015296352",
        "b7e27234cd0652360685e43734570d653e658d2c8690582c8f029af45fbb9e3f",
    ),
    # the truth is a sampled member of the blocked hidden-clique family
    "thm3-cff-greedy-lex": (
        ["--n", "30", "--delta", "6", "--family", "thm3", "--seed", "5"],
        "ec5fe745cdad3c26614fc88fa62fc07cd8a2ee7332983ee662ee1ffff6dfcf9f",
        "cb67bb0b8cdc0dcde5cb9b947ffc177e5a807768238d441f599997bd8d8bf5b3",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_reconstruct_outputs_match_golden_digests(name, tmp_path, capsys):
    args, out_digest, transcript_digest = GOLDEN[name]
    out = tmp_path / "decoded.txt"
    transcript = tmp_path / "transcript.jsonl"
    code = main(["reconstruct", *args, "--out", str(out),
                 "--transcript-out", str(transcript)])
    capsys.readouterr()
    assert code == 0
    assert _sha256(out) == out_digest
    assert _sha256(transcript) == transcript_digest


# the adversarial-clique oracle over the 14,400 members of the n=12, delta=4
# hidden-clique family
PROFILE_COUNT = (
    ["experiment", "profile-count", "--n", "12", "--delta", "4", "--queries", "3",
     "--seed", "5", "--json"],
    "2f5d258f25c755e634bcf1f3f7ded9e1d6cbf6a095da8e73c681187d3875598b",
)


def test_profile_count_report_matches_golden_digest(tmp_path, capsys):
    args, digest = PROFILE_COUNT
    out = tmp_path / "report.json"
    code = main([*args, "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert _sha256(out) == digest


# 799 edges drawn from the 19,900 shuffled candidate pairs at n=200
GENERATE = (
    ["generate", "--family", "random", "--n", "200", "--delta", "8",
     "--density", "0.5", "--seed", "11"],
    "ca4bc83c744a52a59c1d6d90c01383318d5392321fd8237046acd894c8864245",
)


def test_generated_graph_matches_golden_digest(tmp_path, capsys):
    args, digest = GENERATE
    out = tmp_path / "graph.txt"
    code = main([*args, "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert _sha256(out) == digest


# 1,999,000 candidate pairs at n=2000, recorded while the generator still
# shuffled them as (u, v) tuples rather than int codes u * n + v
GENERATE_N2000 = (
    ["generate", "--family", "random", "--n", "2000", "--delta", "16",
     "--density", "0.5", "--seed", "1"],
    "478cfcc2af48ab2f00ccbda21c05b6d49f89f1302d57facf5b9ab596cf033956",
)


def test_n2000_generated_graph_matches_golden_digest(tmp_path, capsys):
    args, digest = GENERATE_N2000
    out = tmp_path / "graph.txt"
    code = main([*args, "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert _sha256(out) == digest


# members of both hidden-clique families, the blocked family's count chain
# and the answer-count statistics over sampled (U, W)
HIDDEN_CLIQUE = {
    "generate-thm2": (
        ["generate", "--family", "thm2", "--n", "40", "--delta", "6", "--seed", "21"],
        "2d2b8ba97e8f8679c615664c3421ccb8c7f16f278c7206dee95b31df37168c7c",
    ),
    "generate-thm3": (
        ["generate", "--family", "thm3", "--n", "40", "--delta", "7", "--seed", "22"],
        "9626d4a4df53a0f5bf3dd072156fdf8d71dc6f97164bbd1a47ba1b03e581c3b6",
    ),
    "family-count-thm3": (
        ["experiment", "family-count", "--n", "12", "--delta", "4",
         "--variant", "thm3", "--json"],
        "3fde8f46688192b51d7e77978c7924f14d37c5b2601176698af0ce19148cd34b",
    ),
    "dq-stats": (
        ["experiment", "dq-stats", "--n", "30", "--delta", "6", "--queries", "5",
         "--trials", "200", "--seed", "7", "--json"],
        "f6cef8d4e8ff533cd867a0a8b2abc0b471f566adfa44daba6c41e43d0c4f1ebd",
    ),
}


@pytest.mark.parametrize("name", sorted(HIDDEN_CLIQUE))
def test_hidden_clique_outputs_match_golden_digests(name, tmp_path, capsys):
    args, digest = HIDDEN_CLIQUE[name]
    out = tmp_path / "out"
    code = main([*args, "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert _sha256(out) == digest


# one report per experiment not pinned above, recorded before the experiment
# commands were dispatched from one table; bound-table also pins its CSV
EXPERIMENTS = {
    # re-recorded when the closed-form peak moved to log space: the peak is
    # now the correctly rounded float, two units in the last place lower
    "alpha-bound": (
        ["alpha-bound", "--w", "2", "--r", "10", "--grid", "10000"],
        "c98baf7848bdb3439dca816821f37287f6a55db0340d88a90044c9e7ef47b772",
    ),
    "exact-t": (
        ["exact-t", "--n", "6", "--w", "1", "--r", "1"],
        "f61d89c7c7f23aaecdf34a962a8b098a4df0d19fac06750e39c70f3917634f7c",
    ),
    "family-count-thm2": (
        ["family-count", "--n", "9", "--delta", "2"],
        "1853af986b936e7dfbe53acb021db620e4c59ae6b85c6106c66ad7b1e4deeacc",
    ),
    "lemma7": (
        ["lemma7", "--sets", "8", "--ground", "12", "--density", "0.5", "--w", "1",
         "--r", "2", "--trials", "500", "--seed", "9"],
        "da3fada1ce47327fd3da487b644d7e4172e9799a0cd51d9060c2fdd26244c498",
    ),
    "lemma8": (
        ["lemma8", "--sets", "8", "--ground", "12", "--density", "0.5", "--w", "1",
         "--r", "2", "--s", "2", "--trials", "500", "--seed", "9"],
        "1510536eecd62adbf12834289ba1f1f9f29106b45cd0c74fe40aa224e750de6c",
    ),
    "duality": (
        ["duality", "--n", "6", "--delta", "2", "--queries", "8", "--seed", "4"],
        "3956a03e5085aeb1b638c722c6ef9db647f885dfcce55455277e05dd8551450e",
    ),
}
BOUND_TABLE = (
    ["bound-table", "--n-list", "100,200,400", "--delta-list", "4,8,16"],
    "c526adfae13201fb6630887794f070926356b380dce79fb4a2d18516f44c4369",
    "538550afff1e1033ba7f507842a94337ab582c00e3a553503c6ce0011d4348bd",
)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_reports_match_golden_digests(name, tmp_path, capsys):
    args, digest = EXPERIMENTS[name]
    out = tmp_path / "report.json"
    code = main(["experiment", *args, "--json", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert _sha256(out) == digest


def test_bound_table_report_and_csv_match_golden_digests(tmp_path, capsys):
    args, report_digest, csv_digest = BOUND_TABLE
    out, csv = tmp_path / "report.json", tmp_path / "table.csv"
    code = main(["experiment", *args, "--emit-csv", str(csv), "--json",
                 "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert _sha256(out) == report_digest
    assert _sha256(csv) == csv_digest
