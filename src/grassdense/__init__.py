"""Density of diagonal projective actions on products of Grassmannians.

A configuration is recorded by its dimension vector (d_1,...,d_k; n): the
diagonal PGL_n action on the product of Grassmannians Gr(d_i, n) either has
a dense orbit ("dense") or it does not ("sparse").  This package decides
density by a certificate-producing rewrite engine, cross-checked by a
randomized linear-algebra oracle that measures the stabilizer dimension of
explicit generic configurations.  The engine has no process-wide instance:
a caller holds an Engine, e.g. Engine().decide(d), and its memo with it.
Engine().decide may answer Unknown; only `grassdense decide` then falls back
to oracle_decide, whose OracleReport is the oracle's answer.
"""

__version__ = "0.9.0"

from .core import (
    AmbientMismatchError,
    DimensionVector,
    MalformedVectorError,
    Status,
    VacuousVectorError,
    VectorParseError,
    normalize,
    parse,
)
from .rules import RewriteStep
from .engine import (
    Certificate,
    Engine,
    MalformedCertificateError,
    Verdict,
    verify_certificate,
)
from .oracle import (
    GenericConfiguration,
    OracleReport,
    VerdictClass,
    oracle_decide,
    sample_configuration,
    stabilizer_nullity,
)
from .families import (
    FamilyRule,
    SizeClassification,
    classify_size,
    enumerate_vectors,
    fibonacci_family,
    repeat_family,
)

__all__ = [
    "AmbientMismatchError", "Certificate", "DimensionVector", "Engine",
    "FamilyRule", "GenericConfiguration", "MalformedCertificateError",
    "MalformedVectorError", "OracleReport", "RewriteStep", "SizeClassification",
    "Status", "VacuousVectorError", "VectorParseError", "Verdict", "VerdictClass",
    "__version__", "classify_size", "enumerate_vectors", "fibonacci_family",
    "normalize", "oracle_decide", "parse", "repeat_family", "sample_configuration",
    "stabilizer_nullity", "verify_certificate",
]
