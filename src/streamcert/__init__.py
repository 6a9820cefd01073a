"""Certification schemes for graph properties over adversarial edge streams.

An untrusted, computationally unlimited prover emits a certificate for a
claimed parameter bound (matching, degeneracy, diameter, coloring, vertex
cover, independent set, clique); a deterministic one-pass verifier with
semantically metered memory checks the certificate against the edge stream
in any order. Exact brute-force oracles supply ground truth, and generators
for two-party lower-bound gadget families let the hardness constructions be
checked empirically.
"""

from .certs import CertificateBlob, MalformedCertificate
from .graph import Graph, validate_graph
from .meter import SpaceMeter, SpaceReport
from .provers import NotCertifiable
from .schemes import BASE_SCHEMES, SCHEMES
from .stream import EdgeStream, make_stream
from .verifiers import Verdict, run_verifier, space_bound

__all__ = [
    "BASE_SCHEMES",
    "CertificateBlob",
    "EdgeStream",
    "Graph",
    "MalformedCertificate",
    "NotCertifiable",
    "SCHEMES",
    "SpaceMeter",
    "SpaceReport",
    "Verdict",
    "make_stream",
    "run_verifier",
    "space_bound",
    "validate_graph",
]
