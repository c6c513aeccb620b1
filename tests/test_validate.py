import ast
from pathlib import Path

import numpy as np
import pytest

import qbattery

from qbattery import KrausSet, SystemParams, kraus_set
from qbattery.validate import (
    CheckResult,
    completeness_deviation,
    run_all_checks,
)


def test_all_checks_pass_on_a_fresh_build():
    results = run_all_checks(fast=True)
    assert len(results) == 7
    for result in results:
        assert result.passed, result.line()


def test_completeness_detects_perturbed_swap_amplitudes():
    params = SystemParams(n_levels=30, g=0.04, delta=0.02)
    clean = kraus_set(params, 8.0)
    assert completeness_deviation(clean) < 1e-12
    # fault injection: scale one swap amplitude by 1 + 1e-6
    broken_eg = clean.eg.copy()
    broken_eg[5, 4] *= 1.0 + 1e-6
    broken = KrausSet(eg=broken_eg, ge=clean.ge, gg=clean.gg, ee=clean.ee, tau=clean.tau)
    assert completeness_deviation(broken) > 1e-12


def test_check_result_reporting():
    good = CheckResult("demo", 1e-13, 1e-12)
    bad = CheckResult("demo", 1e-3, 1e-12)
    assert good.passed and not bad.passed
    assert good.line().startswith("[PASS]")
    assert bad.line().startswith("[FAIL]")


def test_only_validate_imports_scipy_linalg():
    # scipy ships its own OpenBLAS next to numpy's; a scipy.linalg call on
    # a hot path makes the two thread pools contend (a hot-path Cholesky
    # once made a damped round's solve_ivp 4x slower)
    offenders = []
    for path in sorted(Path(qbattery.__file__).parent.glob("*.py")):
        if path.name == "validate.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]  # after a bare ``import scipy``
            else:
                continue
            if any(name == "scipy.linalg" or name.startswith("scipy.linalg.") for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
