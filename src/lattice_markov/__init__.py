"""Symmetric integrable lattice operators and their exactly solvable Markov chains.

The package builds rank-n chain densities from the coproduct of the
quadratic Casimir, certifies braid and Temperley-Lieb identities, builds
SU(2)-invariant two-leg ladder operators, and derives discrete- and
continuous-time Markov chains whose spectra coincide (up to an affine
map) with the underlying lattice Hamiltonians.
"""

from .reporting import DEFAULT_TOL, Tolerance, VerificationReport
from .linalg import (commutator, embed_one_site, embed_two_site, frobenius_norm,
                     intensity_exp, kron, load_matrix_csv, load_matrix_json,
                     save_matrix_csv, save_matrix_json, symmetric_eigenvalues)
from .an_algebra import (AnRep, casimir, casimir_cubic_residuals, casimir_quadratic_residual,
                         coproduct, delta_casimir, delta_casimir_indexed, delta_casimir_sum,
                         fundamental_rep, index_partition_check, unit_matrix)
from .braid_tl import (TLElement, qybe_residual, rmatrix_from_tl,
                       spectral_qybe_residual, tl_check, tl_from_an)
from .lattice_an import (ChainSpec, LatticeHamiltonian, chain_spectrum, hamiltonian,
                         symmetry_residual, tl_decomposition_residuals, two_site_h)
from .su2_ladder import (basis_change, c_operator, c_product, h0, h_doubleprime,
                         h_ladder, h_prime, pair_coupling, positivity_check,
                         similarity_residual, spin_form_hamiltonian, spin_generators,
                         swap_sites, tl_from_ladder, total_spin_generators)
from .markov import (ChainAnalysis, LadderParams, LadderSpec, MarkovChain,
                     absorbing_states, absorbing_states_formula, build_an_markov,
                     build_ladder_markov, closed_sets, decode, encode,
                     spectrum_coincidence, stationary_distribution,
                     transition_semigroup, validate)
from .simulate import (Trajectory, empirical_distribution, occupation_summary,
                       simulate_ctmc, simulate_dtmc, trajectory_to_csv)

__version__ = "0.1.0"
