"""CLI contract: subcommands, file formats, and stable exit codes."""

from __future__ import annotations

import hashlib

import pytest

from streamcert import gadgets, oracles
from streamcert.cli import main
from streamcert.graph import MAX_NODES_OR_EDGES, format_graph_file, path_graph, star_graph
from test_gadgets import CEILINGS


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
    assert main(["oracle", "all", "--graph", "P4"]) == 0
    out = capsys.readouterr().out
    assert "matching=2" in out and "diameter=3" in out
    assert main(["oracle", "tutte_berge", "--graph", "S4"]) == 0
    assert "witness=[1]" in capsys.readouterr().out


def test_oracle_all_runs_one_independent_set_search(capsys, monkeypatch):
    # vc is n - is (Gallai's identity), so both rows come from one search
    searches = []
    search = oracles.maximum_independent_set

    def counted(g):
        searches.append(g)
        return search(g)

    monkeypatch.setattr(oracles, "maximum_independent_set", counted)
    assert main(["oracle", "all", "--graph", "C9"]) == 0
    assert len(searches) == 1
    assert capsys.readouterr().out == (
        "matching=4\ndegeneracy=2\ndiameter=4\nchromatic=3\nvc=5\nis=4\nclique=2\n"
    )
    for parameter, value in (("vc", 5), ("is", 4)):
        assert main(["oracle", parameter, "--graph", "C9"]) == 0
        assert capsys.readouterr().out == f"{parameter}={value}\n"
    assert len(searches) == 3


def test_tutte_berge_oracle_answers_past_the_exhaustive_range(capsys):
    # the Gallai-Edmonds witness needs no search over node sets
    assert main(["oracle", "tutte_berge", "--graph", "S25"]) == 0
    assert capsys.readouterr().out == "tutte_berge=1 witness=[1]\n"


def test_tutte_berge_oracle_agrees_with_the_sweep_on_every_small_graph(tmp_path, capsys):
    # every labelled graph with n <= 5: the printed value is the exhaustive
    # minimum, and the printed U attains it, |U| - odd(V \ U) + n = 2 nu,
    # and is the U that prove --scheme mm_atmost encodes
    import ast
    import re

    from streamcert.certs import decode_blob
    from streamcert.oracles import count_odd_components_excluding
    from streamcert.provers import prove_mm_atmost

    from reference import every_small_graph, oracle_tutte_berge

    path = tmp_path / "g.graph"
    checked = 0
    for g in every_small_graph(5).values():
        n = g.n
        path.write_text(format_graph_file(g, 0))
        assert main(["oracle", "tutte_berge", "--graph", str(path)]) == 0
        out = capsys.readouterr().out
        printed = re.fullmatch(r"tutte_berge=(\d+) witness=(\[.*\])\n", out)
        nu, witness = int(printed[1]), ast.literal_eval(printed[2])
        assert nu == oracle_tutte_berge(g)[0], g
        assert witness == sorted(set(witness)) and set(witness) <= set(range(1, n + 1))
        odd = count_odd_components_excluding(g, witness)
        assert len(witness) - odd + n == 2 * nu, (g, witness)
        cert = prove_mm_atmost(g, nu)
        assert decode_blob(cert, "mm_atmost", n, nu) == frozenset(witness), g
        checked += 1
    assert checked == 1100


@pytest.mark.parametrize(
    "spec,matching,degeneracy",
    [("K4", 2, 3), ("C5", 2, 2), ("P6", 3, 1), ("S5", 1, 1), ("M8", 4, 1),
     ("E3", 0, 0)],
)
def test_every_builtin_graph_letter_loads(spec, matching, degeneracy, capsys):
    assert main(["oracle", "all", "--graph", spec]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"matching={matching}\ndegeneracy={degeneracy}\n")


def test_refused_oracle_prints_nothing(capsys, monkeypatch):
    # matching, degeneracy and diameter are polynomial; the exponential
    # searches refuse K30 and P3000 before any of them runs
    def unreachable(g):
        pytest.fail("diameter oracle ran before the refusal")

    monkeypatch.setitem(oracles.PARAMETERS, "diameter", oracles.Parameter(unreachable, False))
    for graph, n in (("K30", 30), ("P3000", 3000)):
        assert main(["oracle", "all", "--graph", graph]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: exact oracle limited to n <= 24, got n = {n}\n"


def _lines_and_digest(out: str) -> tuple[int, str]:
    return out.count("\n"), hashlib.sha256(out.encode()).hexdigest()


# the README's three gadget examples: every report line and the summary are
# pinned, and each family reads its N, p or r from --size


def test_gadget_command(capsys):
    rc = main(["gadget", "holzer", "--size", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.endswith("summary gadget=holzer_diameter2[p=4] instances=4096 mismatches=0\n")
    assert _lines_and_digest(out) == (
        4097, "90756536c01eb65592c310e2cf10072b74c4361f197e9e66cccccfe57c03fe26"
    )


def test_gadget_perm_coloring_exhaustive(capsys):
    rc = main(["gadget", "perm_coloring", "--size", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.endswith("summary gadget=perm_coloring[r=3] instances=36 mismatches=0\n")
    assert _lines_and_digest(out) == (
        37, "8a11a4383c051a58ee582dc37c1464fc0f3054f146b7d1148ef918237f1845a3"
    )


def test_gadget_disj_diameter8_sample_pinned(capsys):
    rc = main([
        "gadget", "disj_diameter8", "--size", "3", "--count", "1000", "--seed", "7",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.endswith("summary gadget=disj_diameter8[N=3] instances=1000 mismatches=0\n")
    assert _lines_and_digest(out) == (
        1001, "e402df652db13d451b648ebfb18c390e222bc6e2fb78ca079a9da850bcd5a630"
    )


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
        "gadget", "perm_coloring", "--size", "3", "--count", "10", "--seed", "4",
    ])
    assert rc == 0


def test_fuzz_command(capsys):
    rc = main([
        "fuzz", "--scheme", "mm_atmost", "--graph", "K4", "--k", "1",
        "--trials", "25",
    ])
    assert rc == 0
    assert "breaches=0" in capsys.readouterr().out


def test_fuzz_reason_histogram_sums_to_trials(capsys):
    rc = main([
        "fuzz", "--scheme", "deg_atmost", "--graph", "K5", "--k", "2",
        "--trials", "40",
    ])
    assert rc == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    fields = dict(field.split("=", 1) for field in summary.split()[1:])
    counts = dict(pair.rsplit(":", 1) for pair in fields["reasons"].split(","))
    assert list(counts) == sorted(counts)
    assert "malformed-certificate" in counts and len(counts) > 1
    assert sum(map(int, counts.values())) == int(fields["trials"]) > 0


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


#: argv lists that are bad input: each exits 3 with an ``error:`` line
BAD_INPUT_ARGVS = [
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
    ["gadget", "holzer", "--size", "0"],
    ["gadget", "disj_matching", "--size", "-2"],
    ["gadget", "disj_degeneracy", "--size", "-1"],
    ["gadget", "disj_degeneracy", "--size", "2", "--count", "-3"],
    ["gadget", "bitgadget_vc", "--size", "3"],
    ["gadget", "bitgadget_vc", "--size", "3", "--seed", "1"],
    ["gadget", "disj_matching", "--size", "3"],
    ["prove", "--scheme", "mm_atmost", "--graph", "P4", "--k", "2",
     "--out", "UNWRITABLE"],
    ["prove", "--scheme", "nope", "--graph", "P4", "--k", "2", "--out", "CERT"],
    ["verify", "--scheme", "nope", "--graph", "P4", "--k", "2", "--cert", "CERT"],
    ["fuzz", "--scheme", "nope", "--graph", "K4", "--k", "1"],
    ["scale", "--scheme", "nope"],
    ["gadget", "nope"],
    ["gadget", "perm", "--size", "7", "--count", "1"],
    ["gadget", "bitvc", "--size", "4", "--count", "1"],
    # input spaces whose decimal form is past Python's int-to-str limit
    ["gadget", "diam8", "--size", "8000"],
    ["gadget", "bitvc", "--size", "128"],
    # the unreachable node's label k + 1 does not fit a u32 field
    ["prove", "--scheme", "diam_atleast", "--graph", "E2", "--k", "4294967295",
     "--out", "CERT"],
    # below the family's smallest n, where its closed-form cover is the prover's
    ["scale", "--scheme", "vc_atmost", "--sizes", "2"],
    # a graph file that is not UTF-8 text
    ["prove", "--scheme", "mm_atmost", "--graph", "NOT_UTF8", "--out", "CERT"],
    ["verify", "--scheme", "mm_atmost", "--graph", "NOT_UTF8", "--cert", "CERT"],
    ["oracle", "all", "--graph", "NOT_UTF8"],
    ["fuzz", "--scheme", "mm_atmost", "--graph", "NOT_UTF8"],
    # gadget sizes are set by --size alone, and oracles take no threshold
    ["gadget", "holzer", "--p", "3"],
    ["gadget", "disj_matching", "--n", "4"],
    ["gadget", "perm", "--r", "3"],
    ["gadget", "holzer", "--p", "3", "--size", "3"],
    ["oracle", "all", "--graph", "P4", "--k", "0"],
    # above MAX_NODES_OR_EDGES = 2^18: refused before any graph is built
    ["scale", "--scheme", "deg_atleast", "--sizes", "99999999999999999999"],
    ["scale", "--scheme", "mm_atmost", "--sizes", "16,262145"],
    # builtins past 2^18 nodes or edges (K725 has 262,450 edges): refused
    # before the graph is built
    ["oracle", "matching", "--graph", "K100000"],
    ["fuzz", "--scheme", "mm_atmost", "--graph", "P999999999", "--k", "1"],
    ["oracle", "matching", "--graph", "K725"],
    # draws past cli.MAX_DRAWS = 2^16: refused before any record is kept
    ["fuzz", "--scheme", "mm_atmost", "--graph", "K4", "--k", "1",
     "--trials", "1000000000000"],
    ["gadget", "diam8", "--size", "3", "--count", "1000000000000"],
    # each family's first size past its ceiling: refused before any layout
    *(
        ["gadget", gadgets.FAMILY_BUILDERS[name].short, "--size", str(refused), "--count", "1"]
        for name, (_, refused, _) in CEILINGS.items()
    ),
]


def _bind_paths(argv, tmp_path):
    """argv with CERT bound to an empty certificate file, UNWRITABLE to a
    path in a missing directory and NOT_UTF8 to a graph file that is not
    UTF-8."""
    cert = tmp_path / "empty.cert"
    cert.write_bytes(b"")
    not_utf8 = tmp_path / "not-utf8.graph"
    not_utf8.write_bytes(b"\xff\xfe 3 1 0\n1 2\n")
    paths = {
        "CERT": str(cert),
        "UNWRITABLE": str(tmp_path / "missing-dir" / "x.cert"),
        "NOT_UTF8": str(not_utf8),
    }
    return [paths.get(arg, arg) for arg in argv]


def _within_the_caps(monkeypatch):
    """Patch what the CLI calls to fail when it is asked for more than the
    CLI's caps allow: a scaling size or a builtin graph past
    ``MAX_NODES_OR_EDGES`` nodes or edges, a gadget family past its ceiling,
    or more fuzz trials or gadget pairs than ``MAX_DRAWS``. The CLI must
    refuse such a request before any graph is built or any record kept, and
    a test must never build one."""
    from streamcert import cli, harness

    cap = MAX_NODES_OR_EDGES
    run, fuzz, check = (
        harness.run_space_scaling, harness.fuzz_instance, gadgets.check_gadget_equivalence
    )

    def scaling(scheme, sizes):
        assert max(sizes) <= cap, sizes
        return run(scheme, sizes)

    def builtin(letter, build):
        def guarded(n):
            assert n <= cap and (letter != "K" or n * (n - 1) // 2 <= cap), n
            return build(n)
        return guarded

    def fuzzed(scheme, entry, k, policy, *rest):
        assert policy.trials <= cli.MAX_DRAWS, policy
        return fuzz(scheme, entry, k, policy, *rest)

    def family_builder(name, row):
        def guarded(size):
            family = row.build(size)  # refuses a size past the ceiling
            assert size <= CEILINGS[name][0], (name, size)
            return family
        return row._replace(build=guarded)

    def checked(family, count=None, seed=0):
        assert count is None or count <= cli.MAX_DRAWS, count
        return check(family, count, seed)

    monkeypatch.setattr(harness, "run_space_scaling", scaling)
    for letter, build in cli._BUILTIN.items():
        monkeypatch.setitem(cli._BUILTIN, letter, builtin(letter, build))
    for name, row in gadgets.FAMILY_BUILDERS.items():
        monkeypatch.setitem(gadgets.FAMILY_BUILDERS, name, family_builder(name, row))
    monkeypatch.setattr(harness, "fuzz_instance", fuzzed)
    monkeypatch.setattr(gadgets, "check_gadget_equivalence", checked)


@pytest.mark.parametrize("argv", BAD_INPUT_ARGVS)
def test_bad_input_exits_with_parse_error(argv, tmp_path, capsys, monkeypatch):
    # exit 1 means "reject" and exit 2 "not certifiable"; bad input must
    # surface as neither, nor as a traceback
    _within_the_caps(monkeypatch)
    assert main(_bind_paths(argv, tmp_path)) == 3
    assert capsys.readouterr().err.startswith("error: ")


def _sweep_argvs(tmp_path):
    """Bad input, each subcommand's refusals, and prove / verify / fuzz of
    every scheme on edge-case graphs, then scale at n = 1 for every scheme.
    Each verify reads the certificate its prove wrote, or an empty file when
    the prove refused."""
    from streamcert.schemes import SCHEMES

    yield from BAD_INPUT_ARGVS
    yield ["prove", "--scheme", "coloring_atmost", "--graph", "C5", "--k", "2",
           "--out", str(tmp_path / "c5.cert")]
    yield ["verify", "--scheme", "mm_atmost", "--graph", "K4", "--k", "1", "--cert", "CERT"]
    yield ["oracle", "chromatic", "--graph", "E25"]
    yield ["gadget", "disj_matching", "--size", "2", "--count", "0"]
    yield ["fuzz", "--scheme", "mm_atmost", "--graph", "K4", "--k", "2"]
    yield ["scale", "--scheme", "mm_atmost", "--sizes", "1,1"]
    graphs = []
    for name, text in (("n0", "0 0 0\n"), ("n1", "1 0 1\n"), ("k2to32", "2 1 4294967296\n1 2\n")):
        path = tmp_path / f"{name}.graph"
        path.write_text(text)
        graphs.append([str(path)])
    graphs += [[builtin, "--k", "1"] for builtin in ("E1", "P1", "K1")]
    for scheme in SCHEMES:
        for i, graph in enumerate(graphs):
            cert = tmp_path / f"{scheme}-{i}.cert"
            cert.write_bytes(b"")
            yield ["prove", "--scheme", scheme, "--graph", *graph, "--out", str(cert)]
            yield ["verify", "--scheme", scheme, "--graph", *graph, "--cert", str(cert)]
            yield ["fuzz", "--scheme", scheme, "--graph", *graph, "--trials", "3"]
        yield ["scale", "--scheme", scheme, "--sizes", "1"]


def test_exit_codes_hold_their_contract_over_a_sweep(tmp_path, capsys, monkeypatch):
    # exit 1 is a reject, which only ``verify`` reports, and no call may
    # escape ``main`` with an exception
    _within_the_caps(monkeypatch)
    offenders = []
    calls = 0
    for argv in _sweep_argvs(tmp_path):
        argv = _bind_paths(argv, tmp_path)
        calls += 1
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:
            offenders.append((argv, repr(exc)))
            continue
        out = capsys.readouterr().out
        if code not in (0, 1, 2, 3, 4):
            offenders.append((argv, code))
        elif code == 1 and not (argv[0] == "verify" and "verdict=reject" in out):
            offenders.append((argv, code))
    assert calls > 200
    assert not offenders, offenders[:5]


def test_builtin_cap_admits_the_largest_clique(monkeypatch, capsys):
    # K724 has 261,726 edges, within 2^18; a stub stands in for the build
    from streamcert import cli
    from streamcert.graph import complete_graph

    built = []
    monkeypatch.setitem(cli._BUILTIN, "K", lambda n: built.append(n) or complete_graph(3))
    assert main(["oracle", "matching", "--graph", "K724"]) == 0
    assert built == [724]


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


def test_prove_at_the_largest_k_whose_labels_fit_u32(tmp_path, capsys):
    out = tmp_path / "e2.cert"
    argv = ["prove", "--scheme", "diam_atleast", "--graph", "E2",
            "--k", "4294967294", "--out", str(out)]
    assert main(argv) == 0
    assert out.read_bytes().hex() == "06000000000000004000000000ffffffff"


@pytest.mark.parametrize(
    "name,canonical,size",
    [
        ("disj_matching", "disj_matching", ["--size", "4"]),
        ("disj_degeneracy", "disj_degeneracy", ["--size", "3"]),
        ("disj_diameter8", "disj_diameter8", ["--size", "2"]),
        ("diam8", "disj_diameter8", ["--size", "2"]),
        ("holzer_diameter2", "holzer_diameter2", ["--size", "3"]),
        ("holzer", "holzer_diameter2", ["--size", "3"]),
        ("bitgadget_vc", "bitgadget_vc", ["--size", "2"]),
        ("bitvc", "bitgadget_vc", ["--size", "2"]),
        ("perm_coloring", "perm_coloring", ["--size", "3"]),
        ("perm", "perm_coloring", ["--size", "3"]),
        ("matching", "disj_matching", ["--size", "4"]),
        ("degeneracy", "disj_degeneracy", ["--size", "3"]),
    ],
)
def test_every_gadget_name_runs(name, canonical, size, capsys):
    rc = main(["gadget", name, *size, "--count", "3"])
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


def test_prove_verify_coloring_beyond_u32_k(tmp_path, capsys):
    # 4 colours of 33 bits: the certificate declares more bits than its
    # four u32 fields hold, and only the codec formula decides its size
    graph = tmp_path / "p4.graph"
    graph.write_text(format_graph_file(path_graph(4), 2**32 + 1))
    cert = str(tmp_path / "p4.cert")
    args = ["--scheme", "coloring_atmost", "--graph", str(graph)]
    assert main(["prove", *args, "--out", cert]) == 0
    assert "semantic_bits=132" in capsys.readouterr().out
    assert main(["verify", *args, "--cert", cert]) == 0
    assert "verdict=accept" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv,message",
    [
        (["verify", "--scheme", "mm_atmost", "--graph", "P4", "--cert", "CERT"],
         "need an explicit --k"),
        (["prove", "--scheme", "mm_atmost", "--graph", "MISSING", "--out", "CERT"],
         "cannot read graph"),
        (["verify", "--scheme", "mm_atmost", "--graph", "P4", "--k", "1", "--cert", "MISSING"],
         "cannot read certificate"),
        (["gadget", "holzer"], "the following arguments are required: --size"),
        (["gadget", "holzer", "--size", "1"], "holzer_diameter2 needs p >= 2, got 1"),
        (["oracle", "all", "--graph", "NOT_UTF8"], "cannot read graph"),
        # a message that starts with "error: " is the whole of stderr
        (["oracle", "all", "--graph", "TEXT:3 1 0\n2 2\n"],
         "error: bad graph file: self-loop at node 2"),
        (["prove", "--scheme", "mm_atmost", "--graph", "TEXT:2 2 1\n1 2\n2 1\n",
          "--out", "CERT"],
         "error: bad graph file: duplicate edge (1, 2)"),
        (["verify", "--scheme", "mm_atmost", "--graph", "TEXT:3 1 1\n1 4\n",
          "--cert", "CERT"],
         "error: bad graph file: node 4 out of range"),
        (["fuzz", "--scheme", "mm_atmost", "--graph", "TEXT:2 1 1\n1 x\n"],
         "error: bad graph file: bad edge line: '1 x'"),
    ],
    ids=[
        "builtin-without-k", "unreadable-graph", "unreadable-certificate",
        "gadget-without-size", "gadget-below-its-minimum", "graph-not-utf8",
        "graph-self-loop", "graph-duplicate-edge", "graph-node-out-of-range",
        "graph-bad-edge-line",
    ],
)
def test_input_refusals_exit_with_parse_error(argv, message, tmp_path, capsys):
    """Each argv exits 3 with an ``error:`` line; MISSING names a missing
    file, and TEXT:<text> a graph file holding <text>."""
    graph = tmp_path / "text.graph"
    bound = []
    for arg in argv:
        if arg.startswith("TEXT:"):
            graph.write_text(arg.removeprefix("TEXT:"))
            arg = str(graph)
        bound.append(str(tmp_path / "missing") if arg == "MISSING" else arg)
    assert main(_bind_paths(bound, tmp_path)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    if message.startswith("error: "):
        assert err == message + "\n"


#: every exception class in ``streamcert``: one type per refusal a caller
#: handles, and the message, not a subclass or an attribute, names the fault
EXCEPTION_TYPES = sorted([
    "MalformedCertificate", "FieldPastU32", "GraphError", "OrderSpecError",
    "TooLarge", "NotCertifiable", "BadSizes", "CliError",
])


def test_every_exception_type_is_listed_and_takes_only_a_message():
    """Each ``BaseException`` subclass a ``streamcert`` module defines is one
    of ``EXCEPTION_TYPES`` and has no ``__init__`` of its own."""
    import ast
    import importlib
    from pathlib import Path

    import streamcert

    found = []
    for path in sorted(Path(streamcert.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        classes = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        if not classes:
            continue  # __main__ runs the CLI when imported
        module = importlib.import_module(f"streamcert.{path.stem}")
        for name in classes:
            cls = getattr(module, name)  # a class below module level fails here
            if issubclass(cls, BaseException):
                assert "__init__" not in vars(cls), name
                found.append(name)
    assert sorted(found) == EXCEPTION_TYPES


def test_the_package_imports_only_the_standard_library():
    """``pyproject.toml`` declares no dependency: networkx, which the tests
    check the oracles against, stays out of ``src/``."""
    import ast
    import sys
    from pathlib import Path

    import streamcert

    for path in sorted(Path(streamcert.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)
