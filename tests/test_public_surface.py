"""The package's public names and the CLI's options, pinned: a change to either is a
visible edit of this file."""

import types

import lattice_markov
from lattice_markov.cli import build_parser

PUBLIC_NAMES = [
    "AnRep", "ChainAnalysis", "ChainSpec", "DEFAULT_TOL", "LadderParams", "LadderSpec",
    "LatticeHamiltonian", "MarkovChain", "TLElement", "Tolerance", "Trajectory",
    "VerificationReport", "absorbing_states", "absorbing_states_formula", "basis_change",
    "build_an_markov", "build_ladder_markov", "c_operator", "c_product", "casimir",
    "casimir_cubic_residuals", "casimir_quadratic_residual", "chain_spectrum", "closed_sets",
    "commutator", "coproduct", "decode", "delta_casimir", "delta_casimir_indexed",
    "delta_casimir_sum", "embed_one_site", "embed_two_site", "empirical_distribution",
    "encode", "frobenius_norm", "fundamental_rep", "h0", "h_doubleprime", "h_ladder",
    "h_prime", "hamiltonian", "index_partition_check", "intensity_exp", "kron",
    "load_matrix_csv", "load_matrix_json", "occupation_summary", "pair_coupling",
    "positivity_check", "qybe_residual", "rmatrix_from_tl", "save_matrix_csv",
    "save_matrix_json", "similarity_residual", "simulate_ctmc", "simulate_dtmc",
    "spectral_qybe_residual", "spectrum_coincidence", "spin_form_hamiltonian",
    "spin_generators", "stationary_distribution", "swap_sites", "symmetric_eigenvalues",
    "symmetry_residual", "tl_check", "tl_decomposition_residuals", "tl_from_an",
    "tl_from_ladder", "total_spin_generators", "trajectory_to_csv", "transition_semigroup",
    "two_site_h", "unit_matrix", "validate",
]

MODEL = ["--n", "--L", "--a", "--b", "--c"]
VERB_OPTIONS = {
    "verify": ["target", *MODEL, "--tol", "--out"],
    "build": ["target", "--kind", *MODEL, "--d", "--f", "--format", "--out"],
    "spectrum": ["target", "--n", "--L", "--out"],
    "markov": ["target", "--kind", *MODEL, "--format", "--out", "--matrix-out"],
    "simulate": ["target", "--kind", *MODEL, "--init", "--steps", "--tmax", "--seed",
                 "--out", "--trajectory-out"],
}


def _options(parser):
    return [s for action in parser._actions for s in action.option_strings or [action.dest]]


def test_public_names():
    # module objects are left out: which submodules are bound depends on import order
    names = sorted(name for name, value in vars(lattice_markov).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES


def test_cli_verbs_and_options():
    parser = build_parser()
    assert _options(parser) == ["-h", "--help", "--version", "verb"]
    verbs = next(a for a in parser._actions if a.dest == "verb").choices
    assert {verb: _options(sub)[2:] for verb, sub in verbs.items()} == VERB_OPTIONS
