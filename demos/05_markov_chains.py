"""Walkthrough: the exactly solvable Markov chains behind the lattice models.

Dividing the chain Hamiltonian by (L-1)(n+1) gives a transition matrix
(columns sum to one); subtracting (L-1)(n+1) times the identity gives an
intensity matrix (columns sum to zero). Both share the Hamiltonian
spectrum up to an affine map, so the stochastic models are exactly
solvable. The all-equal lattice states are absorbing, and each particle
number sector is a closed set carrying a uniform stationary law.
"""

import numpy as np

from lattice_markov import (ChainSpec, LadderParams, absorbing_states,
                            absorbing_states_formula, build_an_markov,
                            build_ladder_markov, chain_spectrum, closed_sets, decode,
                            hamiltonian, spectrum_coincidence, stationary_distribution,
                            transition_semigroup, validate)

np.set_printoptions(linewidth=120, suppress=True, precision=4)

spec = ChainSpec(1, 3)
p = build_an_markov(spec, "transition")
q = build_an_markov(spec, "intensity")
print("transition chain at n=1, L=3:")
print(p.matrix)
print("validation:", validate(p).as_dict())

print("\nabsorbing states:", absorbing_states(p),
      "closed form:", absorbing_states_formula(spec),
      "labels:", [decode(s, spec) for s in absorbing_states(p)])

analysis = closed_sets(p)
print("closed sets:", analysis.closed_sets, "reducible:", analysis.reducible)
for closed in analysis.closed_sets:
    pi = stationary_distribution(q, closed)
    print(f"  stationary law on {closed}: "
          f"{[round(pi[s - 1], 6) for s in closed]}")

w = chain_spectrum(hamiltonian(spec))  # solved once, mapped twice
print("\nspectrum coincidence (affine map of the Hamiltonian spectrum):")
print("  transition, scale 1/4:", spectrum_coincidence(w, p, 0.25, 0.0))
print("  intensity, shift -4: ", spectrum_coincidence(w, q, 1.0, -4.0))

print("\nsemigroup of the intensity chain at t=1 (columns sum to 1):")
pt = transition_semigroup(q, 1.0)
print("  column sums:", pt.sum(axis=0))

params = LadderParams(16.0, 0.0, 0.0)
for L in (2, 3):
    lp = build_ladder_markov(params, L, "transition")
    lq = build_ladder_markov(params, L, "intensity")
    print(f"\nladder chains at (16,0,0), L={L}: "
          f"P valid {validate(lp).passed}, Q valid {validate(lq).passed}, "
          f"absorbing states {absorbing_states(lp)} (none expected)")
