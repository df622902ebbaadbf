"""Aggregated certification suites behind the command-line verify verb.

Each suite returns a list of VerificationReport in deterministic (name)
order. A suite passes only if every report passes. Two chain checks are
known to fail for rank n >= 2 by an exact amount (the three-site cubic
exchange identities and the Temperley-Lieb contractions); they are kept
as stated rather than weakened, see the README.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import an_algebra, braid_tl, lattice_an, markov, su2_ladder
from .linalg import commutator, frobenius_norm, invariance_residual, kron
from .reporting import DEFAULT_TOL, Tolerance, VerificationReport

H0_GRID = (-1.0, 0.0, 1.0, 2.0)
SPECTRAL_GRID = (-1.0, 0.5, 1.0, 2.0, 3.0)


def verify_an(n: int, L: int, tol: Tolerance = DEFAULT_TOL) -> list[VerificationReport]:
    """Full certification of the rank-n chain stack at L sites."""
    checks: list[VerificationReport] = []
    rep = an_algebra.fundamental_rep(n)

    diff = frobenius_norm(an_algebra.delta_casimir_sum(n) - an_algebra.delta_casimir_indexed(n))
    checks.append(VerificationReport.from_residuals(
        "casimir_route_agreement", {"entrywise": diff}, tol.abs_tol))

    checks.append(VerificationReport.from_residuals(
        "index_partition", {"violations": 0.0 if an_algebra.index_partition_check(n) else 1.0},
        0.5))

    worst = 0.0
    a_matrix, h = rep.cartan_matrix, rep.cartan
    simple = [rep.raising_pairs.index((i + 1, i + 2)) for i in range(n)]
    e = [rep.raising[k] for k in simple]
    f = [rep.lowering[k] for k in simple]
    for i in range(n):
        for j in range(n):
            worst = max(worst, frobenius_norm(commutator(h[i], h[j])))
            delta = 1.0 if i == j else 0.0
            worst = max(worst, frobenius_norm(commutator(e[i], f[j]) - delta * h[i]))
            worst = max(worst, frobenius_norm(commutator(h[i], e[j]) - a_matrix[i, j] * e[j]))
            worst = max(worst, frobenius_norm(commutator(h[i], f[j]) + a_matrix[i, j] * f[j]))
    checks.append(VerificationReport.from_residuals(
        "chevalley_relations", {"worst": worst}, tol.abs_tol))

    coproduct = an_algebra.coproduct
    hom = max(frobenius_norm(commutator(coproduct(e[i]), coproduct(f[i])) - coproduct(h[i]))
              for i in range(n))
    checks.append(VerificationReport.from_residuals(
        "coproduct_homomorphism", {"worst": hom}, tol.abs_tol))
    invariance = invariance_residual(an_algebra.delta_casimir(n),
                                     map(coproduct, rep.all_generators()))
    checks.append(VerificationReport.from_residuals(
        "casimir_invariance", {"worst": invariance}, tol.abs_tol))

    checks.append(VerificationReport.from_residuals(
        "casimir_quadratic", {"residual": an_algebra.casimir_quadratic_residual(n)},
        tol.abs_tol))

    cubic1, cubic2 = an_algebra.casimir_cubic_residuals(n)
    checks.append(VerificationReport.from_residuals(
        "casimir_cubic", {"first": cubic1, "second": cubic2}, tol.abs_tol))

    h2 = lattice_an.two_site_h(n)
    checks.append(braid_tl.qybe_report(h2, tol, name="qybe_braid"))

    element = braid_tl.tl_from_an(n)
    checks.append(braid_tl.tl_check(element, tol))
    rmat = braid_tl.rmatrix_from_tl(element)
    checks.append(braid_tl.qybe_report(rmat, tol, name="tl_rmatrix_braid"))

    spec = lattice_an.ChainSpec(n, L)
    ham = lattice_an.hamiltonian(spec)
    checks.append(VerificationReport.from_residuals(
        "chain_symmetry", {"worst_commutator": lattice_an.symmetry_residual(ham)},
        tol.abs_tol))
    target = (L - 1) * (n + 1)
    rows, cols, values, dim = ham.entries  # whole numbers: every order sums them exactly
    sums = {"row": float(np.max(np.abs(np.bincount(rows, values, dim) - target))),
            "column": float(np.max(np.abs(np.bincount(cols, values, dim) - target)))}
    checks.append(VerificationReport.from_residuals("chain_sum_rule", sums, tol.abs_tol))

    p_chain = markov.build_an_markov(spec, "transition")
    q_chain = markov.build_an_markov(spec, "intensity")
    checks.append(markov.validate(p_chain, tol))
    checks.append(markov.validate(q_chain, tol))

    detected = markov.absorbing_states(p_chain, tol)
    formula = markov.absorbing_states_formula(spec)
    checks.append(VerificationReport.from_residuals(
        "absorbing_formula", {"mismatch": 0.0 if detected == formula else 1.0}, 0.5,
        detected=detected, formula=formula))

    reference = lattice_an.chain_spectrum(ham, tol)  # one solve for both affine images
    checks.append(VerificationReport.from_residuals(
        "spectrum_affine_transition",
        {"max_dev": markov.spectrum_coincidence(reference, p_chain, 1.0 / target, 0.0, tol)},
        tol.abs_tol * 100))
    checks.append(VerificationReport.from_residuals(
        "spectrum_affine_intensity",
        {"max_dev": markov.spectrum_coincidence(reference, q_chain, 1.0, -float(target), tol)},
        tol.abs_tol * 100))

    analysis = markov.closed_sets(q_chain)
    laws = markov._sink_laws(q_chain, analysis.closed_sets)  # every set's law in one vector
    sizes = [len(s) for s in analysis.closed_sets]
    uniform = np.repeat(1.0 / np.array(sizes), sizes)
    # Q is symmetric, so no entry joins two closed sets: Q times the vector of laws
    # holds each law's Q pi in its own set's rows
    rows, cols, values, dim = q_chain.entries
    worst = max(float(np.max(np.abs(laws[np.concatenate(analysis.closed_sets) - 1] - uniform))),
                float(np.max(np.abs(np.bincount(rows, values * laws[cols], dim)))))
    checks.append(VerificationReport.from_residuals(
        "stationary_uniform", {"worst": worst}, tol.abs_tol, reducible=analysis.reducible,
        closed_set_count=len(analysis.closed_sets)))

    checks.sort(key=lambda r: r.name)
    return checks


def verify_ladder(a: float, b: float, c: float, L: int = 2,
                  tol: Tolerance = DEFAULT_TOL) -> list[VerificationReport]:
    """Full certification of the two-leg ladder stack at parameters (a, b, c)."""
    params = markov.LadderParams(a, b, c)
    markov.LadderSpec(L)  # L < 2 raises before any check runs
    checks: list[VerificationReport] = []

    spin = su2_ladder.total_spin_generators(4)
    ops = [su2_ladder.c_operator(k) for k in (1, 2, 3)] + [
        su2_ladder.h0(1.0, 2.0), su2_ladder.h_ladder(), su2_ladder.h_prime(a, b, c)]
    invariance = max(invariance_residual(op, spin) for op in ops)
    checks.append(VerificationReport.from_residuals(
        "su2_invariance", {"worst_commutator": invariance}, tol.abs_tol * 1e3))

    bb = kron(su2_ladder.basis_change(), su2_ladder.basis_change())
    bb_inv = np.linalg.inv(bb)
    hdp = su2_ladder.h_doubleprime(a, b, c)
    conj = invariance_residual(hdp, [bb @ g @ bb_inv for g in spin])
    checks.append(VerificationReport.from_residuals(
        "su2_invariance_transformed", {"worst_commutator": conj}, tol.abs_tol * 1e3))

    worst = max(braid_tl.qybe_residual(su2_ladder.h0(dd, f))
                for dd in H0_GRID for f in H0_GRID)
    checks.append(VerificationReport.from_residuals("h0_braid_grid", {"worst": worst}, 1e-8))

    hl = su2_ladder.h_ladder()
    checks.append(VerificationReport.from_residuals(
        "ladder_braid", {"residual": braid_tl.qybe_residual(hl)}, 1e-8))

    worst = max(braid_tl.spectral_qybe_residuals(hl, itertools.product(SPECTRAL_GRID, repeat=2)))
    checks.append(VerificationReport.from_residuals(
        "spectral_braid_grid", {"worst": worst}, 1e-8))

    checks.append(braid_tl.tl_check(su2_ladder.tl_from_ladder(), tol))

    checks.append(VerificationReport.from_residuals(
        "similarity", {"residual": su2_ladder.similarity_residual(a, b, c)}, 1e-8))

    col_dev = float(np.max(np.abs(hdp.sum(axis=0) - su2_ladder.column_sum_value(a, b, c))))
    checks.append(VerificationReport.from_residuals(
        "column_sums", {"deviation": col_dev}, tol.abs_tol))

    positivity = su2_ladder.positivity_check(a, b, c, tol)
    checks.append(positivity)

    if positivity.passed:
        p_chain = markov.build_ladder_markov(params, L, "transition")
        checks.append(markov.validate(p_chain, tol))
        detected = markov.absorbing_states(p_chain, tol)
        checks.append(VerificationReport.from_residuals(
            "ladder_no_absorbing", {"count": float(len(detected))}, 0.5, detected=detected))
        checks.append(markov.validate(markov.build_ladder_markov(params, L, "intensity"), tol))

    checks.sort(key=lambda r: r.name)
    return checks
