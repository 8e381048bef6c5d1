"""CLI surface: generation, verification, tables, exit codes."""

import io
import json
import os
import subprocess
import sys

import maxnil_lab
from maxnil_lab.cli import main
from maxnil_lab.formats import graph6_decode, graph6_encode
from maxnil_lab.graph import complete_graph


def run(capsys, monkeypatch, argv, stdin=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_petersen_count(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["petersen", "--count"])
    assert code == 0
    assert out.strip() == "7"


def test_petersen_emits_seven_decodable_graphs(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["petersen"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    for line in lines:
        g = graph6_decode(line)
        assert g.m == 15


def test_gen_counts(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["gen", "jorgensen"])
    assert code == 0
    g = graph6_decode(out.strip())
    assert (g.n, g.m) == (8, 21)

    code, out, _ = run(capsys, monkeypatch, ["gen", "g3n5", "--i", "2"])
    g = graph6_decode(out.strip())
    assert (g.n, g.m) == (12, 31)

    code, out, _ = run(capsys, monkeypatch, ["gen", "q-extension", "--n", "14"])
    g = graph6_decode(out.strip())
    assert (g.n, g.m) == (14, 28)


def test_gen_dot_format(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["gen", "fig6", "--format", "dot"])
    assert code == 0
    assert out.startswith("graph G {")
    assert "--" in out


def test_gen_parameter_validation(capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch, ["gen", "q-extension"])
    assert code == 2
    assert "requires --n" in err
    code, _, err = run(capsys, monkeypatch, ["gen", "q13-3", "--i", "1"])
    assert code == 2
    assert "does not take --i" in err
    code, _, err = run(capsys, monkeypatch, ["gen", "q-extension", "--n", "12"])
    assert code == 2


def test_verify_il_only(capsys, monkeypatch):
    k6 = graph6_encode(complete_graph(6))
    code, out, _ = run(capsys, monkeypatch, ["verify"], stdin=k6 + "\n")
    assert code == 1
    assert "il: IL" in out

    k5 = graph6_encode(complete_graph(5))
    code, out, _ = run(capsys, monkeypatch, ["verify"], stdin=k5 + "\n")
    assert code == 0
    assert "il: nIL" in out


def test_verify_maxnil_fig6(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["gen", "fig6"])
    g6 = out.strip()
    code, out, _ = run(capsys, monkeypatch, ["verify", "--maxnil"], stdin=g6)
    assert code == 0
    assert "maxnil: yes" in out and "n: 7, m: 18" in out


def test_verify_json_is_byte_stable(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["gen", "fig6"])
    g6 = out.strip()
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, monkeypatch,
                           ["verify", "--maxnil", "--json"], stdin=g6)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    rec = json.loads(outs[0])
    assert rec["maxnil"] == "yes"
    assert list(rec) == sorted(rec)


def test_verify_malformed_graph6(capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch, ["verify"], stdin="bad\n")
    assert code == 2
    assert "byte offset" in err


def test_verify_empty_input(capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch, ["verify"], stdin="")
    assert code == 2


def test_verify_budget_exhaustion(capsys, monkeypatch):
    # the Petersen graph is IL, and the branch-set search for its
    # witness runs out at one node
    code, _, err = run(capsys, monkeypatch,
                       ["verify", "--k6-maximal", "--budget", "1"], stdin="I@QFCpSJ?")
    assert code == 3
    assert "undecided" in err


def test_verify_maxnil_scan_spends_no_budget(capsys, monkeypatch):
    # the parity system settles Q(13,3) and every Q(13,3)+e, so no
    # branch-set search runs and a budget of 1 suffices
    code, out, _ = run(capsys, monkeypatch, ["gen", "q13-3"])
    g6 = out.strip()
    code, out, _ = run(capsys, monkeypatch,
                       ["verify", "--maxnil", "--budget", "1"], stdin=g6)
    assert code == 0
    assert "maxnil: yes" in out


def test_verify_slow_gate(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["gen", "h-k", "--k", "2"])
    g6 = out.strip()
    assert graph6_decode(g6).m == 51
    code, _, err = run(capsys, monkeypatch, ["verify", "--maxnil"], stdin=g6)
    assert code == 2
    assert "--slow" in err


def test_bounds_table_text_and_json(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch,
                       ["bounds-table", "theorem-main", "--n", "13..15"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert all("below target: yes" in line for line in lines)

    code, out, _ = run(capsys, monkeypatch,
                       ["bounds-table", "q13-3", "--json"])
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["m"] == 26 and rec["ratio"] == "2" and rec["below_target"]


def test_bounds_table_parameter_validation(capsys, monkeypatch):
    code, out, err = run(capsys, monkeypatch, ["bounds-table", "q-extension"])
    assert code == 2 and out == ""
    assert "requires --n" in err
    code, out, err = run(capsys, monkeypatch, ["bounds-table", "q13-3", "--i", "1"])
    assert code == 2 and out == ""
    assert "does not take --i" in err
    # a family with a default parameter needs no flag
    code, out, _ = run(capsys, monkeypatch, ["bounds-table", "fig7"])
    assert code == 0 and len(out.strip().splitlines()) == 1
    # a bound that is no integer, or an empty range, is a usage error
    for argv in (["jorgensen", "--i", "abc"], ["q-extension", "--n", "13..x"],
                 ["jorgensen", "--i", "5..2"]):
        code, out, err = run(capsys, monkeypatch, ["bounds-table", *argv])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and argv[-1] in err


def test_export_roundtrip(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["gen", "q13-3"])
    g6 = out.strip()
    code, out, _ = run(capsys, monkeypatch, ["export"], stdin=g6)
    assert code == 0
    assert out.strip() == g6
    code, out, _ = run(capsys, monkeypatch,
                       ["export", "--format", "json"], stdin=g6)
    rec = json.loads(out.strip())
    assert rec["n"] == 13 and len(rec["edges"]) == 26


def test_file_input_and_output(tmp_path, capsys, monkeypatch):
    target = tmp_path / "graph.g6"
    code, out, _ = run(capsys, monkeypatch,
                       ["gen", "jorgensen", "--i", "0", "-o", str(target)])
    assert code == 0
    text = target.read_text().strip()
    assert graph6_decode(text).n == 8
    code, out, _ = run(capsys, monkeypatch, ["verify", str(target)])
    assert code == 0
    assert "il: nIL" in out


def test_file_input_with_a_non_ascii_byte_is_a_graph6_error(tmp_path, capsys, monkeypatch):
    # a byte outside graph6's range is an input error (exit 2) from a
    # file as from stdin, not a decoding traceback
    target = tmp_path / "bad.g6"
    # an e-acute in UTF-8, and a byte that is not UTF-8 at all
    for data, shown in ((b"E\xc3\xa9w\n", "'\u00e9'"), (b"E\xffw\n", "'\\udcff'")):
        target.write_bytes(data)
        stdin = data.decode("utf-8", "surrogateescape")
        want = (2, "", "graph6 error: line 1: invalid graph6 character "
                       f"{shown} at byte 1 (byte offset 1)\n")
        for command in ("verify", "export"):
            assert run(capsys, monkeypatch, [command, str(target)]) == want
            assert run(capsys, monkeypatch, [command], stdin=stdin) == want


def test_certification_does_not_import_networkx(tmp_path):
    # networkx is a test-only reference; the package and the CLI run
    # without it, planarity included
    script = """
import sys
from maxnil_lab import cli, graph6_encode, is_maximal_k6_minor_free, is_maxnil, jorgensen_graph

j = jorgensen_graph()
print(is_maxnil(j).maxnil_status, is_maximal_k6_minor_free(j).k6_maximal_status)
path = sys.argv[1]
with open(path, "w") as out:
    out.write(graph6_encode(j) + "\\n")
print(cli.main(["verify", "--maxnil", path]))
print("networkx" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(maxnil_lab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "j.g6")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "maxnil maximal"
    assert "maxnil: yes" in proc.stdout
    assert lines[-2:] == ["0", "False"]
