"""Automated relational verifier (the HyperViper analogue)."""

from .analysis import AnalysisError, AnalysisReport, Obligation, TaintAnalyzer
from .baseline import BaselineChecker, BaselineReport, baseline_check
from .conformance import ConformanceReport, check_conformance
from .declarations import ProgramSpec, ResourceDecl
from .frontend import VerificationResult, verify
from .product import (
    ProductError,
    ProductNIReport,
    ProductRun,
    build_product,
    is_productable,
    product_noninterference,
    run_product,
)
from .taint import HIGH, LOW, Taint, abstract, join, join_all
from .vcgen import (
    ConformanceVC,
    VCError,
    conformance_vc,
    discharge_conformance,
    symbolic_conformance_ok,
)

__all__ = [
    "AnalysisError",
    "AnalysisReport",
    "BaselineChecker",
    "BaselineReport",
    "ConformanceReport",
    "ConformanceVC",
    "VCError",
    "HIGH",
    "LOW",
    "Obligation",
    "ProductError",
    "ProductNIReport",
    "ProductRun",
    "ProgramSpec",
    "ResourceDecl",
    "Taint",
    "TaintAnalyzer",
    "VerificationResult",
    "abstract",
    "baseline_check",
    "build_product",
    "check_conformance",
    "conformance_vc",
    "discharge_conformance",
    "is_productable",
    "join",
    "join_all",
    "product_noninterference",
    "run_product",
    "symbolic_conformance_ok",
    "verify",
]
