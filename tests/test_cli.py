import json
import shlex
from pathlib import Path

from pathclique import cli
from pathclique.constructions import turan
from pathclique.detect import ClassificationOutcome, StructureClass
from pathclique.graph6 import graph6_decode, graph6_encode
from pathclique.graphs import primitive


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_and_count(capsys):
    code, out, _ = run(capsys, "construct", "--family", "h", "--n", "12", "--m", "4", "--k", "8")
    assert code == 0
    g = graph6_decode(out.strip())
    assert g.n == 12 and g.edge_count() == 3 * 12 - 7
    code, out, _ = run(capsys, "count", "--r", "2", "--graph6", out.strip())
    assert code == 0 and out.strip() == "29"


def test_count_on_64_vertices(capsys):
    """count runs over twin classes, so T(64, 8), with 7,340,032 copies of
    K_6, is counted at once."""
    code, out, _ = run(capsys, "count", "--graph6", graph6_encode(turan(64, 8)), "--r", "6")
    assert code == 0 and out == "7340032\n"


def test_construct_families(capsys):
    """Every family prints the graph6 code recorded for it."""
    block = graph6_encode(primitive("cycle", 4))
    cases = {
        "turan --n 7 --p 3": "FFz~o",
        "h --n 12 --m 4 --k 8": "K^zfFB_wF?[?",
        "h_minus --n 12 --m 4 --k 7": "K}rEEB?oA?W@",
        "double_star --a 3 --b 4": "FsPA?",
        "g1 --n 7 --k 6": "F{eCG",
        "g2 --n1 5 --n2 5 --k 7": "I{e?GKC@G",
        f"g3 --n 8 --k 7 --block {block} --attach 0": "G{e?KC",
        "g4 --n1 5 --n2 4": "G{cCKG",
        "g5 --n1 5 --n2 4": "G{eCKG",
        "turan_union --n 8 --k 5 --m 3": "G]??WW",
        "complete --n 5": "D~{",
        "empty --n 3": "B?",
        "path --n 6": "EhCG",
        "cycle --n 6": "EhEG",
        "star --n 5": "Ds_",
    }
    for argv, want in cases.items():
        assert run(capsys, "construct", "--family", *argv.split()) == (0, want + "\n", "")


def test_formula_case_line(capsys):
    code, out, _ = run(capsys, "formula", "--case", "--k", "9", "--m", "5", "--r", "2")
    assert code == 0
    assert out.strip() == "Case2 lhs=3 rhs=24/8"


def test_formula_values(capsys):
    code, out, _ = run(capsys, "formula", "--n", "12", "--k", "8", "--m", "4", "--r", "2")
    assert code == 0 and out.strip() == "29"
    code, out, _ = run(capsys, "formula", "--katona", "--n", "12", "--k", "8", "--m", "4")
    assert code == 0 and out.strip() == "29"
    code, out, _ = run(capsys, "formula", "--luo", "--n", "10", "--k", "5", "--r", "2")
    assert code == 0 and out.strip() == "10"
    code, out, _ = run(
        capsys, "formula", "--predicted", "--n", "10", "--k", "5", "--m", "3", "--r", "2"
    )
    assert code == 0 and out.strip() == "10 upper_bound"


def test_oracle_command(capsys):
    code, out, _ = run(
        capsys, "oracle", "--n", "7", "--r", "2", "--k", "4", "--m", "3", "--connected"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value 6"
    assert lines[1].startswith("extremal ")
    witness = graph6_decode(lines[1].split(" ", 1)[1])
    assert witness.n == 7 and sorted(witness.degrees()) == [1] * 6 + [6]


def test_verify_json_deterministic_data(capsys):
    args = ["verify", "--k", "4", "--m", "3", "--r", "2", "--n", "4..6", "--connected"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    doc1, doc2 = json.loads(out1), json.loads(out2)
    assert doc1["data"] == doc2["data"]
    assert json.dumps(doc1["data"]) == json.dumps(doc2["data"])
    assert all(row["status"] == "EQUAL" for row in doc1["data"])
    assert len(doc1["meta"]["runtime_ms"]) == len(doc1["data"])


def test_verify_csv_and_report_files(capsys, tmp_path):
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "report.csv"
    base = ["verify", "--k", "4", "--m", "3", "--r", "2", "--n", "4..6", "--connected"]
    assert cli.main(base + ["--out", str(out_json)]) == 0
    assert cli.main(base + ["--format", "csv", "--out", str(out_csv)]) == 0
    capsys.readouterr()
    doc = json.loads(out_json.read_text())
    assert [row["n"] for row in doc["data"]] == [4, 5, 6]
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("k,m,r,n,scope,case_tag,")
    assert len(lines) == 4
    # byte-identical rerun of the data section
    again = tmp_path / "report2.json"
    assert cli.main(base + ["--out", str(again)]) == 0
    capsys.readouterr()
    assert json.loads(again.read_text())["data"] == doc["data"]


def test_classify_command(capsys):
    code, out, _ = run(
        capsys, "construct", "--family", "h", "--n", "9", "--m", "4", "--k", "8"
    )
    g6 = out.strip()
    code, out, _ = run(capsys, "classify", "--k", "8", "--m", "4", "--graph6", g6)
    assert code == 0 and out.strip() == "Class1"


def test_classify_exhaustive(capsys):
    code, out, _ = run(
        capsys, "classify", "--k", "5", "--m", "3", "--exhaustive", "--n", "5..7"
    )
    assert code == 0
    assert "Class1" in out and "total" in out
    # exhaustive mode needs the orders; single-graph mode takes none
    code, out, err = run(capsys, "classify", "--exhaustive", "--k", "7", "--m", "4")
    assert code == 1 and out == "" and err == "usage error: missing --n\n"


def test_classify_unclassified_exits_2(capsys, monkeypatch):
    # injected counterexample fixture: force the classifier to give up
    monkeypatch.setattr(
        cli,
        "classify_structure",
        lambda g, k, m: ClassificationOutcome(StructureClass.UNCLASSIFIED, None),
    )
    g6 = graph6_encode(primitive("star", 8))
    code, out, _ = run(capsys, "classify", "--k", "4", "--m", "3", "--graph6", g6)
    assert code == 2
    assert out.strip() == "Unclassified"


def test_disintegrate_command(capsys):
    g6 = graph6_encode(primitive("star", 7))
    code, out, _ = run(capsys, "disintegrate", "--delta", "2", "--graph6", g6)
    assert code == 0
    lines = dict(
        line.split(" ", 1) if " " in line else (line, "")
        for line in out.strip().splitlines()
    )
    assert lines["core_size"] == "0"
    assert lines["stuck"] == "no"


def test_table_command(capsys):
    code, out, _ = run(capsys, "table", "--k", "4..5", "--m", "3..3", "--r", "2..2", "--n", "6..7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,m,r,n,case,h_value,predicted,exact"
    assert "4,3,2,6,Case1,5,5,yes" in lines


def test_exit_codes(capsys):
    code, _, err = run(capsys, "construct", "--family", "nope", "--n", "5")
    assert code == 1 and err == "usage error: unknown family 'nope'\n"
    code, _, err = run(capsys, "construct", "--family", "g2", "--n1", "5")
    assert code == 1 and err == "usage error: missing --n2, --k\n"
    code, _, err = run(capsys, "count", "--r", "2", "--graph6", "@@@")
    assert code == 1
    code, _, err = run(capsys, "oracle", "--n", "11", "--r", "2", "--k", "5", "--m", "3")
    assert code == 3
    code, _, err = run(capsys, "formula", "--case", "--k", "9", "--m", "5")
    assert code == 1  # missing --r
    code, _, err = run(capsys, "frobnicate")
    assert code == 1  # unknown subcommand


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_run(capsys):
    """Every one-line `pathclique ...` example in README runs through
    cli.main and exits 0; lines that need the shell ($(...)) are skipped."""
    examples = [
        line
        for line in README.read_text(encoding="utf-8").splitlines()
        if line.startswith("pathclique ") and "$(" not in line
    ]
    assert len(examples) >= 10
    for line in examples:
        code, _, err = run(capsys, *shlex.split(line, comments=True)[1:])
        assert code == 0, (line, err)


# one call per subcommand whose stdout is deterministic (verify's data
# section is; its meta holds timings)
GOOD_CALLS = [
    "construct --family h --n 12 --m 4 --k 8",
    "count --r 2 --graph6 Ds_",
    "formula --case --k 9 --m 5 --r 2",
    "oracle --n 7 --k 5 --m 3 --r 2 --connected",
    "verify --k 4 --m 3 --r 2 --n 4..6 --connected",
    "classify --k 5 --m 3 --exhaustive --n 5..7",
    "disintegrate --delta 2 --graph6 Ds_",
    "table --k 4..5 --m 3..3 --r 2..2 --n 6..7",
]
USAGE_ERRORS = ["frobnicate", "oracle --n x --r 2 --k 5", "verify --scope weird", "count"]


def _calls(capsys, calls: list[str], fresh: bool) -> list:
    """(exit code, stdout) of each call, in turn, each through a parser
    built for it (fresh) or through the one built for the first."""
    cli._build_parser.cache_clear()
    out = []
    for line in calls:
        if fresh:
            cli._build_parser.cache_clear()
        code, text, _ = run(capsys, *line.split())
        if line.startswith("verify") and code == 0:
            text = json.dumps(json.loads(text)["data"])
        out.append((code, text))
    return out


def test_the_parser_is_built_once(capsys):
    """cli.main builds its parser on its first call and reuses it: in one
    process, a usage error followed by a good call of every subcommand
    gives the exit codes and stdout that a parser built fresh for each
    call gives, and the parser is built once."""
    calls = [line for error in USAGE_ERRORS for line in [error] + GOOD_CALLS]
    shared = _calls(capsys, calls, fresh=False)
    assert cli._build_parser.cache_info().misses == 1
    assert shared == _calls(capsys, calls, fresh=True)
    assert [code for code, _text in shared] == [1, *[0] * len(GOOD_CALLS)] * len(USAGE_ERRORS)
