"""Acceptance criteria, one test per criterion, one printed line each.

Criteria 3 and 5 are asserted in their all-rank form. With Alt_d the
signed sum over the six place permutations of (C^d)^(x)3 (zero for d <= 2),
the three-site cubic exchange identities read LHS + (n+1)^3 Alt_d = 0 and
the Temperley-Lieb contractions read E1 E2 E1 - E1 = Alt_d and
E2 E1 E2 - E2 = Alt_d. At rank 1 these are the plain identities; for
n >= 2 the package's rank-1 residuals are exactly the Frobenius norms
6 (n+1)^3 sqrt(binom(n+1,3)) and 6 sqrt(binom(n+1,3)) of the defect (see
README and tests/test_an_algebra).
"""

import math

import numpy as np

import lattice_markov as lm
from lattice_markov.braid_tl import qybe_residual, spectral_qybe_residual, tl_check, tl_from_an
from lattice_markov.lattice_an import (ChainSpec, chain_spectrum, hamiltonian, symmetry_residual,
                                       two_site_h)
from lattice_markov.markov import (LadderParams, absorbing_states, absorbing_states_formula,
                                   build_an_markov, build_ladder_markov,
                                   spectrum_coincidence, validate)
from lattice_markov.simulate import empirical_distribution, simulate_ctmc, simulate_dtmc
from lattice_markov import an_algebra, su2_ladder

from alternating import alternating_sum


def announce(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} [{'PASS' if ok else 'FAIL'}] {detail}")


def test_criterion_01_golden_coproduct_matrix():
    expected = np.array([[1.0, 0.0, 0.0, 0.0],
                         [0.0, -1.0, 2.0, 0.0],
                         [0.0, 2.0, -1.0, 0.0],
                         [0.0, 0.0, 0.0, 1.0]])
    ok = np.array_equal(an_algebra.delta_casimir_indexed(1), expected)
    announce(1, ok, "coproduct Casimir at rank 1 equals the printed 4x4 exactly")
    assert ok


def test_criterion_02_quadratic_identity():
    residuals = {n: an_algebra.casimir_quadratic_residual(n) for n in (1, 2, 3, 4)}
    ok = all(r < 1e-10 for r in residuals.values())
    announce(2, ok, f"quadratic Casimir identity, n=1..4, residuals {residuals}")
    assert ok


def test_criterion_03_cubic_identities():
    # A = DC (x) 1 and B = 1 (x) DC; both identities carry the same defect.
    alt_err, reported = {}, {}
    ok = True
    for n in (1, 2, 3):
        d = n + 1
        dc = an_algebra.delta_casimir(n)
        a = np.kron(dc, np.eye(d))
        b = np.kron(np.eye(d), dc)
        i3 = np.eye(d ** 3)
        lhs1 = a @ b @ a - n * (b @ a + a @ b) + (n * n - 1) * a + n * n * b + n * (1 - n * n) * i3
        lhs2 = b @ a @ b - n * (b @ a + a @ b) + (n * n - 1) * b + n * n * a + n * (1 - n * n) * i3
        alt = (n + 1) ** 3 * alternating_sum(d)
        alt_err[n] = max(float(np.max(np.abs(lhs1 + alt))), float(np.max(np.abs(lhs2 + alt))))
        reported[n] = an_algebra.casimir_cubic_residuals(n)
        ok = ok and alt_err[n] < 1e-10
        ok = ok and all(math.isclose(r, float(np.linalg.norm(lhs)), rel_tol=1e-12, abs_tol=1e-12)
                        for r, lhs in zip(reported[n], (lhs1, lhs2)))
    ok = ok and max(reported[1]) < 1e-10
    announce(3, ok, f"three-site cubic identities LHS + (n+1)^3 Alt_d = 0, n=1..3, "
                    f"max entry error {alt_err}; reported rank-1 residuals {reported} "
                    "equal the Frobenius norm of the recomputed LHS")
    assert ok


def test_criterion_04_braid_identity():
    residuals = {n: qybe_residual(two_site_h(n)) for n in (1, 2, 3)}
    ok = all(r < 1e-10 for r in residuals.values())
    announce(4, ok, f"braid identity for the chain density, n=1..3, residuals {residuals}")
    assert ok


def test_criterion_05_tl_relations():
    details = {}
    ok = tl_check(tl_from_an(1)).passed
    for n in (1, 2, 3):
        d = n + 1
        element = tl_from_an(n)
        report = tl_check(element)
        e1 = np.kron(element.matrix, np.eye(d))
        e2 = np.kron(np.eye(d), element.matrix)
        defects = {"contract_left": e1 @ e2 @ e1 - e1, "contract_right": e2 @ e1 @ e2 - e2}
        alt = alternating_sum(d)
        alt_err = max(float(np.max(np.abs(m - alt))) for m in defects.values())
        rmat_res = qybe_residual(lm.rmatrix_from_tl(element))
        details[n] = {**report.residuals, "alt_error": alt_err, "rmatrix_braid": rmat_res}
        ok = ok and alt_err < 1e-10
        ok = ok and report.residuals["idempotent"] < 1e-10 and rmat_res < 1e-10
        ok = ok and all(math.isclose(report.residuals[k], float(np.linalg.norm(m)),
                                     rel_tol=1e-12, abs_tol=1e-12)
                        for k, m in defects.items())
    announce(5, ok, f"TL relations E^2 = 2E and E1 E2 E1 - E1 = E2 E1 E2 - E2 = Alt_d, "
                    f"derived braid solution, n=1..3: {details}")
    assert ok


def test_criterion_06_global_symmetry():
    residuals = {}
    for n in (1, 2):
        for L in (2, 3, 4):
            residuals[(n, L)] = symmetry_residual(hamiltonian(ChainSpec(n, L)))
    ok = all(r < 1e-10 for r in residuals.values())
    announce(6, ok, f"global symmetry commutators: worst {max(residuals.values()):.3e}")
    assert ok


def test_criterion_07_markov_validity_and_spectra():
    ok = True
    worst_col, worst_entry, worst_spec = 0.0, 0.0, 0.0
    for n in (1, 2, 3):
        for L in (2, 3):
            spec = ChainSpec(n, L)
            w = chain_spectrum(hamiltonian(spec))
            p = build_an_markov(spec, "transition")
            q = build_an_markov(spec, "intensity")
            for chain, target in ((p, 1.0), (q, 0.0)):
                col_dev = float(np.max(np.abs(chain.matrix.sum(axis=0) - target)))
                worst_col = max(worst_col, col_dev)
                ok = ok and col_dev < 1e-12
            entry_floor = float(p.matrix.min())
            off = q.matrix - np.diag(np.diag(q.matrix))
            entry_floor = min(entry_floor, float(off.min()))
            worst_entry = min(worst_entry, entry_floor)
            ok = ok and entry_floor >= -1e-14
            norm = (L - 1) * (n + 1)
            dev_p = spectrum_coincidence(w, p, 1.0 / norm, 0.0)
            dev_q = spectrum_coincidence(w, q, 1.0, -float(norm))
            worst_spec = max(worst_spec, dev_p, dev_q)
            ok = ok and dev_p < 1e-8 and dev_q < 1e-8
    announce(7, ok, f"stochastic/intensity validity and affine spectrum match: "
                    f"worst column dev {worst_col:.2e}, worst entry {worst_entry:.2e}, "
                    f"worst spectrum dev {worst_spec:.2e}")
    assert ok


def test_criterion_08_absorbing_set_formula():
    ok = True
    for n in (1, 2, 3):
        for L in (2, 3, 4):
            spec = ChainSpec(n, L)
            if spec.dim > 4096:
                continue
            chain = build_an_markov(spec, "transition")
            ok = ok and absorbing_states(chain) == absorbing_states_formula(spec)
    announce(8, ok, "detected absorbing states equal the closed-form set for all (n, L)")
    assert ok


def test_criterion_09_ladder_braid_identities():
    grid = (-1.0, 0.0, 1.0, 2.0)
    h0_worst = max(qybe_residual(su2_ladder.h0(d, f)) for d in grid for f in grid)
    hl = su2_ladder.h_ladder()
    hl_res = qybe_residual(hl)
    spectral_grid = (-1.0, 0.5, 1.0, 2.0, 3.0)
    spec_worst = max(spectral_qybe_residual(hl, x, y)
                     for x in spectral_grid for y in spectral_grid)
    ok = h0_worst < 1e-8 and hl_res < 1e-8 and spec_worst < 1e-8
    announce(9, ok, f"ladder braid identities: h0 grid worst {h0_worst:.2e}, "
                    f"fixed density {hl_res:.2e}, parameterized grid worst {spec_worst:.2e}")
    assert ok


def test_criterion_10_similarity_and_column_sums():
    points = [(16.0, 0.0, 0.0), (0.0, 8.0, 1.0), (1.0, 1.0, 1.0)]
    sim_worst = max(su2_ladder.similarity_residual(*abc) for abc in points)
    col_worst = 0.0
    for abc in points:
        m = su2_ladder.h_doubleprime(*abc)
        col_worst = max(col_worst, float(np.max(np.abs(
            m.sum(axis=0) - su2_ladder.column_sum_value(*abc)))))
    ok = sim_worst < 1e-8 and col_worst < 1e-10
    announce(10, ok, f"basis-change similarity worst {sim_worst:.2e}, "
                     f"column-sum worst {col_worst:.2e}")
    assert ok


def test_criterion_11_ladder_markov_chains():
    params = LadderParams(16.0, 0.0, 0.0)
    ok = True
    for L in (2, 3):
        p = build_ladder_markov(params, L, "transition")
        q = build_ladder_markov(params, L, "intensity")
        ok = ok and validate(p).passed and validate(q).passed
        ok = ok and absorbing_states(p) == []
    announce(11, ok, "ladder transition/intensity chains validate at (16,0,0), L=2,3, "
                     "with no absorbing state")
    assert ok


def _time_average_sigmas(q_full: np.ndarray, sector: list[int], t_eff: float) -> list[float]:
    """Exact standard error of the time-averaged occupation of each sector state.

    For a reversible generator restricted to a closed set with uniform
    stationary law, the asymptotic variance of (1/T) int 1_s(X_t) dt is
    (2 / (m T)) sum_k (u_k . 1_s)^2 / |lambda_k| over the non-null
    eigenpairs. This is the correct 3-sigma scale for the uniform-law
    check; a binomial bound on the jump count ignores autocorrelation and
    understates the spread.
    """
    idx = [s - 1 for s in sector]
    sub = q_full[np.ix_(idx, idx)]
    w, u = np.linalg.eigh(sub)
    m = len(idx)
    sigmas = []
    for pos in range(m):
        var = sum((u[:, k] @ np.eye(m)[pos]) ** 2 / (-w[k])
                  for k in range(m) if w[k] < -1e-9)
        sigmas.append(math.sqrt(2.0 * var / (m * t_eff)))
    return sigmas


def test_criterion_12_simulation_laws():
    t_max = 2000.0
    cases = {3: 2, 4: 4}  # L -> initial state inside a non-trivial closed set
    ok_runs = {}
    for L, init in cases.items():
        chain = build_an_markov(ChainSpec(1, L), "intensity")
        sector = next(s for s in lm.closed_sets(chain).closed_sets if init in s)
        p_uniform = 1.0 / len(sector)
        sigmas = _time_average_sigmas(chain.matrix, sector, 0.9 * t_max)
        ok_runs[L] = 0
        for seed in range(20):
            traj = simulate_ctmc(chain, init, t_max, seed=seed)
            occ = empirical_distribution(traj)
            within = all(abs(occ[s - 1] - p_uniform) < 3.0 * sg
                         for s, sg in zip(sector, sigmas))
            if within:
                ok_runs[L] += 1
    p_chain = build_an_markov(ChainSpec(1, 3), "transition")
    dtmc = simulate_dtmc(p_chain, 1, 10 ** 5, seed=0)
    stays = set(dtmc.states) == {1}
    ok = all(v >= 19 for v in ok_runs.values()) and stays
    announce(12, ok, f"uniform law within 3 sigma (exact asymptotic spread) in "
                     f"{ok_runs} of 20 runs; absorbing start never leaves: {stays}")
    assert ok


def test_criterion_13_cross_route_agreement():
    ok = all(np.array_equal(an_algebra.delta_casimir_sum(n),
                            an_algebra.delta_casimir_indexed(n)) for n in (1, 2, 3, 4))
    announce(13, ok, "operator-sum and index-formula coproduct Casimir agree exactly, n=1..4")
    assert ok
