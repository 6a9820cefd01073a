"""CLI contract: subcommands, file formats, and stable exit codes."""

from __future__ import annotations

import pytest

from streamcert.cli import main
from streamcert.graph import format_graph_file, path_graph, star_graph


@pytest.fixture()
def star_file(tmp_path):
    path = tmp_path / "star4.graph"
    path.write_text(format_graph_file(star_graph(4), 1))
    return str(path)


def test_prove_verify_roundtrip(tmp_path, star_file, capsys):
    cert = str(tmp_path / "star.cert")
    assert main(["prove", "--scheme", "mm_atmost", "--graph", star_file, "--out", cert]) == 0
    out = capsys.readouterr().out
    assert "semantic_bits=4" in out  # n-bit membership vector, n=4
    rc = main(["verify", "--scheme", "mm_atmost", "--graph", star_file, "--cert", cert])
    assert rc == 0
    assert "verdict=accept" in capsys.readouterr().out


def test_verify_order_flag_does_not_change_verdict(tmp_path, star_file):
    cert = str(tmp_path / "c.cert")
    main(["prove", "--scheme", "vc_atmost", "--graph", star_file, "--out", cert])
    codes = {
        main([
            "verify", "--scheme", "vc_atmost", "--graph", star_file,
            "--cert", cert, "--order", order,
        ])
        for order in ("given", "rev", "lex", "shuffle:3", "split:2")
    }
    assert codes == {0}


def test_truncated_certificate_rejects(tmp_path, star_file, capsys):
    cert = tmp_path / "c.cert"
    main(["prove", "--scheme", "mm_atmost", "--graph", star_file, "--out", str(cert)])
    cert.write_bytes(cert.read_bytes()[:5])
    rc = main(["verify", "--scheme", "mm_atmost", "--graph", star_file, "--cert", str(cert)])
    assert rc == 1
    assert "malformed-certificate" in capsys.readouterr().out


def test_not_certifiable_exit_code(tmp_path, capsys):
    gf = tmp_path / "c5.graph"
    from streamcert.graph import cycle_graph

    gf.write_text(format_graph_file(cycle_graph(5), 2))
    rc = main([
        "prove", "--scheme", "coloring_atmost", "--graph", str(gf),
        "--out", str(tmp_path / "x.cert"),
    ])
    assert rc == 2


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("not a graph\n")
    rc = main([
        "prove", "--scheme", "mm_atmost", "--graph", str(bad),
        "--out", str(tmp_path / "x.cert"),
    ])
    assert rc == 3


def test_threshold_echo_mismatch(star_file, tmp_path):
    rc = main([
        "prove", "--scheme", "mm_atmost", "--graph", star_file,
        "--k", "2", "--out", str(tmp_path / "x.cert"),
    ])
    assert rc == 3


def test_builtin_graphs_and_oracle(capsys):
    assert main(["oracle", "all", "--graph", "P4", "--k", "0"]) == 0
    out = capsys.readouterr().out
    assert "matching=2" in out and "diameter=3" in out
    assert main(["oracle", "tutte_berge", "--graph", "S4", "--k", "0"]) == 0
    assert "witness=[1]" in capsys.readouterr().out


def test_refused_oracle_prints_nothing(capsys):
    # matching, degeneracy and diameter are polynomial; chromatic refuses K30
    assert main(["oracle", "all", "--graph", "K30"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: exact oracle limited to n <= 24, got n = 30\n"


def test_gadget_command(capsys):
    rc = main(["gadget", "holzer", "--p", "4", "--check", "exhaustive"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mismatches=0" in out


def test_gadget_perm_coloring_exhaustive(capsys):
    rc = main(["gadget", "perm_coloring", "--r", "3", "--check", "exhaustive"])
    assert rc == 0
    assert "mismatches=0" in capsys.readouterr().out


def test_prove_is_on_edgeless_lists_all_nodes(tmp_path, capsys):
    from streamcert.certs import decode_blob, deserialize_certificate
    from streamcert.graph import empty_graph

    gf = tmp_path / "e5.graph"
    gf.write_text(format_graph_file(empty_graph(5), 5))
    cert_path = tmp_path / "e5.cert"
    rc = main([
        "prove", "--scheme", "is_atleast", "--graph", str(gf), "--out", str(cert_path),
    ])
    assert rc == 0
    blob = deserialize_certificate(cert_path.read_bytes())
    assert decode_blob(blob, "is_atleast", 5, 5) == (1, 2, 3, 4, 5)


def test_gadget_sample_command(capsys):
    rc = main([
        "gadget", "perm_coloring", "--r", "3", "--check", "sample",
        "--count", "10", "--seed", "4",
    ])
    assert rc == 0


def test_fuzz_command(capsys):
    rc = main([
        "fuzz", "--scheme", "mm_atmost", "--graph", "K4", "--k", "1",
        "--trials", "25",
    ])
    assert rc == 0
    assert "breaches=0" in capsys.readouterr().out


def test_fuzz_computes_only_the_schemes_parameter(capsys):
    # matching is polynomial: n = 30 is past the exponential oracles' cutoff
    rc = main([
        "fuzz", "--scheme", "mm_atmost", "--graph", "P30", "--k", "13",
        "--trials", "5",
    ])
    assert rc == 0
    assert "breaches=0" in capsys.readouterr().out


def test_fuzz_refuses_legal_instance(capsys):
    rc = main([
        "fuzz", "--scheme", "mm_atmost", "--graph", "K4", "--k", "2",
        "--trials", "5",
    ])
    assert rc == 3


def test_scale_command(capsys):
    rc = main(["scale", "--scheme", "coloring_atmost", "--sizes", "64,256"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bound_bits" in out and "loglog_slope" in out


def test_reject_exit_code_with_transplanted_cert(tmp_path):
    # certificate proved for the path, replayed against a different graph
    pf = tmp_path / "p4.graph"
    pf.write_text(format_graph_file(path_graph(4), 2))
    cert = str(tmp_path / "p4.cert")
    main(["prove", "--scheme", "mm_atleast_list", "--graph", str(pf), "--out", cert])
    sf = tmp_path / "s4.graph"
    sf.write_text(format_graph_file(star_graph(4), 2))
    rc = main([
        "verify", "--scheme", "mm_atleast_list", "--graph", str(sf), "--cert", cert,
    ])
    assert rc == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["scale", "--scheme", "mm_atmost", "--sizes", "x"],
        ["scale", "--scheme", "mm_atmost", "--sizes=-3"],
        ["scale", "--scheme", "mm_atmost", "--sizes", "0"],
        ["scale", "--scheme", "clique_atleast", "--sizes", "2"],
        ["scale", "--scheme", "is_atleast", "--sizes", "64,2"],
        ["oracle", "matching", "--graph", "C2"],
        ["verify", "--scheme", "mm_atmost", "--graph", "K4", "--k", "-1",
         "--cert", "CERT"],
        ["fuzz", "--scheme", "mm_atmost", "--graph", "K4", "--k", "1",
         "--trials", "-5", "--mode", "bit_flip"],
        ["scale", "--scheme", "mm_atmost", "--sizes", "64,64"],
        ["verify", "--k", "abc"],
        ["frobnicate"],
        ["gadget", "holzer", "--p", "0"],
        ["gadget", "disj_matching", "--n", "-2"],
        ["gadget", "disj_degeneracy", "--n", "-1"],
        ["gadget", "disj_degeneracy", "--n", "2", "--check", "sample",
         "--count", "-3"],
        ["gadget", "bitgadget_vc", "--n", "3"],
        ["gadget", "bitgadget_vc", "--n", "3", "--check", "sample"],
        ["gadget", "disj_matching", "--n", "3"],
        ["prove", "--scheme", "mm_atmost", "--graph", "P4", "--k", "2",
         "--out", "UNWRITABLE"],
        ["prove", "--scheme", "nope", "--graph", "P4", "--k", "2", "--out", "CERT"],
        ["verify", "--scheme", "nope", "--graph", "P4", "--k", "2", "--cert", "CERT"],
        ["fuzz", "--scheme", "nope", "--graph", "K4", "--k", "1"],
        ["scale", "--scheme", "nope"],
        ["gadget", "nope"],
        ["gadget", "perm", "--r", "7", "--check", "sample", "--count", "1"],
        ["gadget", "bitvc", "--n", "4", "--check", "sample", "--count", "1"],
    ],
)
def test_bad_input_exits_with_parse_error(argv, tmp_path, capsys):
    # exit 1 means "reject" and exit 2 "not certifiable"; bad input must
    # surface as neither, nor as a traceback
    cert = tmp_path / "empty.cert"
    cert.write_bytes(b"")
    paths = {"CERT": str(cert), "UNWRITABLE": str(tmp_path / "missing-dir" / "x.cert")}
    argv = [paths.get(arg, arg) for arg in argv]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv,code,stream",
    [
        # E0 has no node for the verifier's 0 label: no certificate exists
        (["prove", "--scheme", "diam_atleast", "--graph", "E0", "--k", "0",
          "--out", "OUT"], 2, "err"),
        (["fuzz", "--scheme", "diam_atleast", "--graph", "E0", "--k", "1"], 0, "out"),
    ],
)
def test_empty_graph_diameter_exits_cleanly(argv, code, stream, tmp_path, capsys):
    argv = [str(tmp_path / "e0.cert") if arg == "OUT" else arg for arg in argv]
    assert main(argv) == code
    text = getattr(capsys.readouterr(), stream)
    assert text.startswith("not-certifiable: " if code == 2 else "summary ")


@pytest.mark.parametrize(
    "name,canonical,size",
    [
        ("disj_matching", "disj_matching", ["--n", "4"]),
        ("disj_degeneracy", "disj_degeneracy", ["--n", "3"]),
        ("disj_diameter8", "disj_diameter8", ["--n", "2"]),
        ("diam8", "disj_diameter8", ["--n", "2"]),
        ("holzer_diameter2", "holzer_diameter2", ["--p", "3"]),
        ("holzer", "holzer_diameter2", ["--p", "3"]),
        ("bitgadget_vc", "bitgadget_vc", ["--n", "2"]),
        ("bitvc", "bitgadget_vc", ["--n", "2"]),
        ("perm_coloring", "perm_coloring", ["--r", "3"]),
        ("perm", "perm_coloring", ["--r", "3"]),
    ],
)
def test_every_gadget_name_runs(name, canonical, size, capsys):
    rc = main(["gadget", name, *size, "--check", "sample", "--count", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert f"summary gadget={canonical}[" in out and "instances=3 " in out


def test_python_dash_m_runs_the_cli_from_a_checkout():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "streamcert", *args],
            env=env, capture_output=True, text=True, timeout=60,
        )

    ok = run("oracle", "all", "--graph", "P4")
    assert ok.returncode == 0, ok.stderr
    assert "matching=2" in ok.stdout
    bad = run("oracle", "all", "--graph", "P4", "--no-such-flag")
    assert bad.returncode == 3
    assert bad.stderr.startswith("error: ")


def test_coloring_of_the_empty_graph_with_no_colors(tmp_path):
    cert = str(tmp_path / "e0.cert")
    args = ["--scheme", "coloring_atmost", "--graph", "E0", "--k", "0"]
    assert main(["prove", *args, "--out", cert]) == 0
    assert main(["verify", *args, "--cert", cert]) == 0
