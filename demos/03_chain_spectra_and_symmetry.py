"""Walkthrough: assembled chains, their global symmetry, and their spectra."""

import numpy as np

from lattice_markov import (ChainSpec, chain_spectrum, hamiltonian, symmetry_residual,
                            tl_decomposition_residuals)

np.set_printoptions(linewidth=120, suppress=True)

for n, L in [(1, 3), (1, 4), (2, 3)]:
    spec = ChainSpec(n, L)
    h = hamiltonian(spec)  # held as its non-zero entries
    print(f"n={n}, L={L}: dim {spec.dim}, {len(h.entries.values)} non-zero entries, "
          f"symmetry residual {symmetry_residual(h):.1e} "
          f"over {n * (n + 2)} global generators")
    w = chain_spectrum(h)
    print(f"  spectrum range [{w[0]:+.4f}, {w[-1]:+.4f}], "
          f"top eigenvalue expected {(L - 1) * (n + 1)}")

# every row and column sums to (L-1)(n+1): the origin of the Markov chains
h = hamiltonian(ChainSpec(1, 3)).matrix  # the entries scattered into a read-only array
print("\nrow sums at n=1, L=3:", h.sum(axis=1))

# the chain decomposes over the embedded TL candidates with a minus sign
for n, L in [(1, 3), (2, 3)]:
    plus, minus = tl_decomposition_residuals(n, L)
    print(f"n={n}, L={L}: TL decomposition residuals: "
          f"minus-sign {minus:.1e} (holds), plus-sign {plus:.3g} (fails)")
