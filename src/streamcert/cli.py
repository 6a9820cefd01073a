"""Command-line entry point.

Subcommands: prove, verify, oracle, gadget, fuzz, scale. Each takes only
options it reads: ``gadget`` sets every family's size (its N, p or r) with
one ``--size``, and ``oracle`` takes no threshold.

Exit codes are a stable contract:
  0  accept / pass
  1  reject
  2  not certifiable
  3  parse or usage error
  4  counterexample or soundness breach found
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import cache
from pathlib import Path

from . import gadgets, harness, oracles
from .certs import FieldPastU32, deserialize_certificate, serialize_certificate
from .graph import MAX_NODES_OR_EDGES, Graph, GraphError, parse_graph_file
from .provers import NotCertifiable, gallai_edmonds_witness
from .schemes import SCHEMES
from .stream import OrderSpecError, make_stream
from .verifiers import run_verifier

EXIT_ACCEPT = 0
EXIT_REJECT = 1
EXIT_NOT_CERTIFIABLE = 2
EXIT_PARSE_ERROR = 3
EXIT_COUNTEREXAMPLE = 4

#: the most draws one ``fuzz --trials`` mode or ``gadget --count`` may ask
#: for: every draw is kept as a record until the report is printed
MAX_DRAWS = 1 << 16

#: builtin graphs by letter, from the corpus's sized families
_BUILTIN = {letter: build for _, letter, build in harness.SIZED_FAMILIES.values()}
_BUILTIN_NAME = re.compile(rf"([{''.join(_BUILTIN)}])(\d+)")


class CliError(Exception):
    """Bad input on the command line; ``main`` prints it and exits 3."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on a usage error, the code for "not certifiable"
    def error(self, message: str):
        raise CliError(message)


#: input errors that ``main`` reports as ``error: ...`` with exit 3
_INPUT_ERRORS = (
    CliError,
    oracles.TooLarge,
    OrderSpecError,
    gadgets.BadSizes,
)


def _load_graph(
    spec: str, k_flag: int | None, builtin_default_k: int | None = None
) -> tuple[Graph, int]:
    """Load a graph file, or a builtin name like K4 / C5 / P6 / S5 / M8 / E3."""
    if k_flag is not None and k_flag < 0:
        raise CliError(f"--k must be >= 0, got {k_flag}")
    m = _BUILTIN_NAME.fullmatch(spec)
    if m and not Path(spec).exists():
        letter, digits = m.groups()
        try:
            n = int(digits)
            # K_n has n(n-1)/2 edges, every other builtin at most n
            if (max(n, n * (n - 1) // 2) if letter == "K" else n) > MAX_NODES_OR_EDGES:
                raise CliError(
                    f"builtin graph {spec!r} is past {MAX_NODES_OR_EDGES} nodes or edges"
                )
            g = _BUILTIN[letter](n)
        except ValueError as exc:
            raise CliError(f"bad builtin graph {spec!r}: {exc}") from None
        if k_flag is None:
            if builtin_default_k is None:
                raise CliError("builtin graphs need an explicit --k")
            return g, builtin_default_k
        return g, k_flag
    try:
        text = Path(spec).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read graph {spec!r}: {exc}") from None
    try:
        g, k_file = parse_graph_file(text)
    except GraphError as exc:
        raise CliError(f"bad graph file: {exc}") from None
    if k_flag is not None and k_flag != k_file:
        raise CliError(
            f"threshold mismatch: file header says k={k_file}, flag says k={k_flag}"
        )
    return g, k_file if k_flag is None else k_flag


def _cmd_prove(args) -> int:
    g, k = _load_graph(args.graph, args.k)
    try:
        cert = SCHEMES[args.scheme].prover(g, k)
    except NotCertifiable as exc:
        print(f"not-certifiable: {exc}", file=sys.stderr)
        return EXIT_NOT_CERTIFIABLE
    except FieldPastU32 as exc:
        # a label derived from --k (diam_atleast's k + 1) past the u32 field
        raise CliError(f"--k {k} gives a certificate {exc}") from None
    try:
        Path(args.out).write_bytes(serialize_certificate(cert))
    except OSError as exc:
        raise CliError(f"cannot write certificate: {exc}") from None
    print(f"scheme={args.scheme} semantic_bits={cert.semantic_bits}")
    return EXIT_ACCEPT


def _cmd_verify(args) -> int:
    g, k = _load_graph(args.graph, args.k)
    try:
        cert = deserialize_certificate(Path(args.cert).read_bytes())
    except OSError as exc:
        raise CliError(f"cannot read certificate: {exc}") from None
    verdict, report = run_verifier(args.scheme, make_stream(g, k, args.order), cert)
    print(
        f"verdict={verdict.decision} reason={verdict.reason} "
        f"peak_state_bits={report.peak_state_bits} "
        f"certificate_bits={report.certificate_bits}"
    )
    return EXIT_ACCEPT if verdict.accepted else EXIT_REJECT


def _cmd_oracle(args) -> int:
    # the threshold is irrelevant to oracles: a file's header k is ignored
    g, _ = _load_graph(args.graph, None, builtin_default_k=0)
    if args.parameter == "tutte_berge":
        # the checked Gallai-Edmonds witness that mm_atmost encodes, at any n
        witness, value = gallai_edmonds_witness(g)
        print(f"tutte_berge={value} witness={sorted(witness)}")
        return EXIT_ACCEPT
    params = oracles.PARAMETERS if args.parameter == "all" else (args.parameter,)
    # every value before any line, so a refused oracle leaves stdout empty,
    # and in reverse table order, so the exponential searches at its end
    # refuse an oversized graph before any polynomial oracle runs; the one
    # independent-set search gives alpha and tau = n - alpha (Gallai's identity)
    values: dict[str, int | float] = {}
    for p in reversed(params):
        if p == "vc" and "is" in values:
            values[p] = g.n - values["is"]
        else:
            values[p] = oracles.parameter_value(g, p)
    print("\n".join(f"{p}={values[p]}" for p in params))
    return EXIT_ACCEPT


#: every accepted gadget name, canonical or short, to its canonical name
_GADGET_NAMES = {
    name: canonical
    for canonical, row in gadgets.FAMILY_BUILDERS.items()
    for name in (canonical, row.short)
}


def _cmd_gadget(args) -> int:
    count = 100 if args.count is None and args.seed is not None else args.count
    if count is not None and not 1 <= count <= MAX_DRAWS:
        raise CliError(f"--count must be in 1..{MAX_DRAWS}, got {count}")
    family = gadgets.FAMILY_BUILDERS[_GADGET_NAMES[args.name]].build(args.size)
    report = gadgets.check_gadget_equivalence(family, count, seed=args.seed or 0)
    for line in report.lines():
        print(line)
    print(
        f"summary gadget={family.name} instances={len(report.records)} "
        f"mismatches={len(report.mismatches)}"
    )
    return EXIT_ACCEPT if report.ok else EXIT_COUNTEREXAMPLE


def _cmd_fuzz(args) -> int:
    if not 1 <= args.trials <= MAX_DRAWS:
        raise CliError(f"--trials must be in 1..{MAX_DRAWS}, got {args.trials}")
    g, k = _load_graph(args.graph, args.k)
    info = SCHEMES[args.scheme]
    value = oracles.parameter_value(g, info.parameter)
    entry = harness.CorpusEntry("cli-instance", g, {info.parameter: value})
    if info.legal(value, k):
        raise CliError(
            f"instance is legal for {args.scheme} at k={k}; "
            "soundness fuzzing needs an illegal instance"
        )
    modes = harness.FUZZ_MODES if args.mode == "all" else (args.mode,)
    records: list[harness.TrialRecord] = []
    breaches: list[str] = []
    for mode in modes:
        policy = harness.FuzzPolicy(mode, args.trials, args.seed)
        got_records, got_breaches = harness.fuzz_instance(args.scheme, entry, k, policy)
        records += got_records
        breaches += got_breaches
    for b in breaches:
        print(b)
    reasons = harness.CampaignReport(tuple(records), tuple(breaches)).reasons()
    print(
        f"summary scheme={args.scheme} trials={len(records)} breaches={len(breaches)} "
        f"reasons={harness.format_reasons(reasons)}"
    )
    return EXIT_ACCEPT if not breaches else EXIT_COUNTEREXAMPLE


def _cmd_scale(args) -> int:
    try:
        sizes = [int(tok) for tok in args.sizes.split(",")]
    except ValueError:
        raise CliError(
            f"--sizes must be comma-separated integers, got {args.sizes!r}"
        ) from None
    if len(set(sizes)) < len(sizes):
        raise CliError(f"--sizes must not repeat a size, got {args.sizes!r}")
    low = harness.SCALING_FAMILIES[args.scheme].min_n
    if min(sizes) < low:
        raise CliError(f"--sizes for {args.scheme} must be >= {low}, got {min(sizes)}")
    if max(sizes) > MAX_NODES_OR_EDGES:
        raise CliError(f"--sizes must be <= {MAX_NODES_OR_EDGES}, got {max(sizes)}")
    report = harness.run_space_scaling(args.scheme, sizes)
    for line in report.lines():
        print(line)
    return EXIT_ACCEPT if report.ok else EXIT_COUNTEREXAMPLE


@cache  # one parser per process: parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="streamcert",
        description="Prove and verify graph-parameter bounds over edge streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="write a certificate for a legal instance")
    p.add_argument("--scheme", required=True, choices=SCHEMES)
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_prove)

    p = sub.add_parser("verify", help="verify a certificate against a stream")
    p.add_argument("--scheme", required=True, choices=SCHEMES)
    p.add_argument("--graph", required=True)
    p.add_argument("--cert", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--order", default="given")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("oracle", help="run an exact oracle")
    p.add_argument("parameter", choices=(*oracles.PARAMETERS, "tutte_berge", "all"))
    p.add_argument("--graph", required=True)
    p.set_defaults(run=_cmd_oracle)

    p = sub.add_parser("gadget", help="sweep a lower-bound gadget family")
    p.add_argument("name", choices=_GADGET_NAMES)
    # the family's N, p or r; the family refuses a size below its minimum
    p.add_argument("--size", type=int, required=True)
    # either flag draws a sample, 100 pairs from seed 0 by default; with
    # neither, every pair runs once
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(run=_cmd_gadget)

    p = sub.add_parser("fuzz", help="fuzz certificates against an illegal instance")
    p.add_argument("--scheme", required=True, choices=SCHEMES)
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=(*harness.FUZZ_MODES, "all"), default="all")
    p.set_defaults(run=_cmd_fuzz)

    p = sub.add_parser("scale", help="measure verifier space against its bound")
    p.add_argument("--scheme", required=True, choices=SCHEMES)
    p.add_argument("--sizes", default="256,1024,4096,16384")
    p.set_defaults(run=_cmd_scale)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
