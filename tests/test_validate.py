import ast
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import qbattery

from qbattery import DissipationParams, SystemParams
from qbattery.lindblad import _jump_operators, _liouvillian
from qbattery.validate import (
    CheckResult,
    KrausSet,
    completeness_deviation,
    joint_hamiltonian,
    kraus_set,
    run_all_checks,
)

DENSE_ORACLES = {
    "kraus_set", "KrausSet", "povm_apply", "joint_unitary", "joint_hamiltonian",
    "lindblad_rhs", "_rhs_factory",
}


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


def test_dense_oracles_stay_out_of_the_production_modules():
    # general rounds contract the amplitude bands and the generator is
    # built sparse; a dense Kraus matrix, joint propagator, Hamiltonian
    # or right-hand side in these modules would bring back O(N^3) work
    offenders = []
    for module in ("propagator", "rounds", "lindblad"):
        path = Path(qbattery.__file__).parent / f"{module}.py"
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.rpartition(".")[2] for alias in node.names]
            else:
                continue
            offenders += [f"{module}.py:{node.lineno} {name}" for name in names if name in DENSE_ORACLES]
    assert offenders == []


@pytest.mark.parametrize("n_levels, g, delta", [(100, 0.04, 0.02), (8, 0.04, 0.0), (10, 0.0, 0.0)])
def test_sparse_generator_factors_match_the_dense_hamiltonian(n_levels, g, delta):
    params = SystemParams(n_levels=n_levels, g=g, delta=delta, beta=0.1)
    diss = DissipationParams.thermal(params, gamma_b=1e-4)
    k = -1j * sparse.csr_matrix(joint_hamiltonian(params))
    for rate, _, opop in _jump_operators(params, diss):
        k = k - 0.5 * rate * opop
    terms = _liouvillian(params, diss)
    for built, dense in ((terms[0][0], k.tocsr()), (terms[1][1], k.conj().tocsr())):
        for field in ("data", "indices", "indptr"):
            a, b = getattr(built, field), getattr(dense, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
