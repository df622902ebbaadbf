"""Walkthrough: the SU(2)-invariant two-leg ladder operators.

Everything is assembled from three invariant couplings on a rung pair.
The two-parameter family h0(d, f) solves the braid identity for every
(d, f); the fixed density h_ladder() additionally admits the affine
spectral family (x-1) h + 16 I; the general family h_prime(a, b, c) is
conjugate, rung by rung, to the explicit non-negative pattern
h_doubleprime(a, b, c).
"""

import numpy as np

from lattice_markov import (h0, h_doubleprime, h_ladder, h_prime, positivity_check,
                            qybe_residual, similarity_residual, spectral_qybe_residual,
                            spin_form_hamiltonian)

worst = max(qybe_residual(h0(d, f)) for d in (-1, 0, 1, 2) for f in (-1, 0, 1, 2))
print(f"h0 braid residual, worst over a 16-point (d,f) grid: {worst:.2e}")

hl = h_ladder()
print(f"fixed ladder density: braid residual {qybe_residual(hl):.2e}, "
      f"symmetric: {np.allclose(hl, hl.T)}")
print(f"  eigenvalues: {sorted(set(np.round(np.linalg.eigvalsh(hl), 8).tolist()))}")

worst = max(spectral_qybe_residual(hl, x, y)
            for x in (-1, 0.5, 1, 2, 3) for y in (-1, 0.5, 1, 2, 3))
print(f"parameterized braid family (x-1) h + 16 I, worst grid residual: {worst:.2e}")

print("\nhow the fixed density sits inside the general family:")
print(f"  h_prime(0, 0, 0) == 4 * h_ladder(): {np.array_equal(h_prime(0, 0, 0), 4 * hl)}")

for abc in [(16, 0, 0), (0, 8, 1), (1, 1, 1)]:
    print(f"similarity to the explicit pattern at {abc}: "
          f"{similarity_residual(*abc):.2e}")

for abc in [(16, 0, 0), (0, 8, 0), (0, 0, 0)]:
    report = positivity_check(*abc)
    print(f"entrywise non-negativity at {abc}: pass={report.passed}, "
          f"min entry value {report.residuals['min_entry']}")

m = h_doubleprime(16, 0, 0)
print(f"column sums of the transformed density at (16,0,0): "
      f"{sorted(set(m.sum(axis=0).tolist()))} (expect 4*(18+64) = 328)")

# the exchange/biquadratic spin Hamiltonian has a different level pattern,
# so no affine map relates its two-rung spectrum to the fixed density
spin_levels, spin_counts = np.unique(np.round(np.linalg.eigvalsh(spin_form_hamiltonian(2)), 8),
                                     return_counts=True)
levels, counts = np.unique(np.round(np.linalg.eigvalsh(hl), 8), return_counts=True)
print(f"\nspin-form two-rung levels {spin_levels.tolist()} with multiplicities "
      f"{tuple(spin_counts.tolist())}; fixed density levels {levels.tolist()} with "
      f"multiplicities {tuple(counts.tolist())}, so no affine map relates them")
