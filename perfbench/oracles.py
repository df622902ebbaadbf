"""Independent answers for every benchmark request.

Nothing here imports lattice_markov. The rank-n chain is rebuilt from its
definition, (n+1) times the sum of adjacent-site swaps, with the same state
order as the package (site 1 is the most significant digit, states are
1-based), and every other expected answer is a closed form. A defect in the
package therefore cannot hide in its own oracle.

Each ``check_*`` function builds its references at once and returns a
callable that takes a request's result and returns a list of problems; an
empty list means the answer is certified. run.py builds every check before
the first request, so that the checks themselves allocate little while a
request's result is alive and do not raise the run's peak memory.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

import numpy as np

# Every verify suite must still report these checks; a later suite may add more.
AN_CHECKS = frozenset({
    "absorbing_formula", "casimir_cubic", "casimir_invariance", "casimir_quadratic",
    "casimir_route_agreement", "chain_sum_rule", "chain_symmetry", "chevalley_relations",
    "coproduct_homomorphism", "index_partition", "markov_intensity", "markov_transition",
    "qybe_braid", "spectrum_affine_intensity", "spectrum_affine_transition",
    "stationary_uniform", "tl_relations", "tl_rmatrix_braid",
})
LADDER_CHECKS = frozenset({
    "column_sums", "h0_braid_grid", "ladder_braid", "ladder_no_absorbing",
    "ladder_positivity", "markov_intensity", "markov_transition", "similarity",
    "spectral_braid_grid", "su2_invariance", "su2_invariance_transformed", "tl_relations",
})
# For rank n >= 2 these two identities fail by an exact amount (see the README).
AN_EXPECTED_FAILURES = frozenset({"casimir_cubic", "tl_relations"})

SPECTRUM_RTOL = 1e-9
SEMIGROUP_TOL = 1e-8
SEMIGROUP_PROBES = 4
MASS_TOL = 1e-9


def an_digits(n: int, L: int) -> np.ndarray:
    """Site values of every state; row k holds the digits of state k + 1."""
    d = n + 1
    powers = d ** np.arange(L - 1, -1, -1)
    return (np.arange(d ** L)[:, None] // powers) % d


@lru_cache(maxsize=None)
def an_sectors(n: int, L: int) -> tuple[tuple[int, ...], ...]:
    """States grouped by the multiset of their site values, sorted, 1-based.

    Adjacent swaps preserve the multiset and connect all its arrangements,
    so these are exactly the closed sets of the rank-n chain.
    """
    digits = an_digits(n, L)
    counts = np.stack([(digits == v).sum(axis=1) for v in range(n + 1)], axis=1)
    keys = counts @ ((L + 1) ** np.arange(n + 1))
    groups: dict[int, list[int]] = {}
    for state, key in enumerate(keys.tolist(), start=1):
        groups.setdefault(key, []).append(state)
    return tuple(sorted(tuple(g) for g in groups.values()))


def largest_sector(n: int, L: int) -> tuple[int, ...]:
    return max(an_sectors(n, L), key=len)


def all_equal_states(n: int, L: int) -> list[int]:
    """1-based indices of the states (l, l, ..., l): the absorbing states."""
    d = n + 1
    step = (d ** L - 1) // (d - 1)
    return [l * step + 1 for l in range(d)]


def an_hamiltonian(n: int, L: int) -> np.ndarray:
    """Dense H = (n+1) sum_i SWAP(i, i+1), built from digit swaps."""
    d = n + 1
    digits = an_digits(n, L)
    powers = d ** np.arange(L - 1, -1, -1)
    cols = np.arange(d ** L)
    h = np.zeros((d ** L, d ** L))
    for i in range(L - 1):
        swapped = digits.copy()
        swapped[:, [i, i + 1]] = swapped[:, [i + 1, i]]
        h[swapped @ powers, cols] += d  # one entry per column: a swap is a permutation
    return h


def an_intensity_eigensystem(n: int, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of Q = H - (L-1)(n+1) I."""
    return np.linalg.eigh(an_hamiltonian(n, L) - (L - 1) * (n + 1) * np.eye((n + 1) ** L))


def _payload(result, expected_code: int, problems: list[str]):
    code, text = result
    if code != expected_code:
        problems.append(f"exit code {code}, expected {expected_code}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        problems.append(f"output is not JSON: {exc}")
        return None


def _suite_problems(payload, required: frozenset, expected_failures: frozenset) -> list[str]:
    checks = {c["name"]: c for c in payload["checks"]}
    problems = []
    missing = required - checks.keys()
    if missing:
        problems.append(f"missing checks {sorted(missing)}")
    failing = {name for name, c in checks.items() if not c["pass"]}
    if failing != expected_failures:
        problems.append(f"failing checks {sorted(failing)}, expected {sorted(expected_failures)}")
    if payload["pass"] != (not failing):
        problems.append("suite pass flag disagrees with its checks")
    return problems


def check_verify_an(n: int, L: int):
    expected_failures = AN_EXPECTED_FAILURES if n >= 2 else frozenset()

    def check(result) -> list[str]:
        problems: list[str] = []
        payload = _payload(result, 1 if expected_failures else 0, problems)
        if payload is None:
            return problems
        problems += _suite_problems(payload, AN_CHECKS, expected_failures)
        checks = {c["name"]: c for c in payload["checks"]}
        detected = checks.get("absorbing_formula", {}).get("info", {}).get("detected")
        if detected != all_equal_states(n, L):
            problems.append(f"absorbing states {detected}, expected the all-equal states")
        count = checks.get("stationary_uniform", {}).get("info", {}).get("closed_set_count")
        if count != math.comb(L + n, n):
            problems.append(f"{count} closed sets, expected C(L+n, n) = {math.comb(L + n, n)}")
        return problems
    return check


def check_verify_ladder():
    def check(result) -> list[str]:
        problems: list[str] = []
        payload = _payload(result, 0, problems)
        if payload is None:
            return problems
        problems += _suite_problems(payload, LADDER_CHECKS, frozenset())
        checks = {c["name"]: c for c in payload["checks"]}
        detected = checks.get("ladder_no_absorbing", {}).get("info", {}).get("detected")
        if detected != []:
            problems.append(f"ladder absorbing states {detected}, expected none")
        return problems
    return check


def check_spectrum(n: int, L: int):
    """Top eigenvalue (L-1)(n+1) with multiplicity C(L+n, n), gap 2(n+1)(1 - cos(pi/L)),
    and agreement with LAPACK on the independently built Hamiltonian."""
    top = (L - 1) * (n + 1)
    gap = 2 * (n + 1) * (1 - math.cos(math.pi / L))
    tol = SPECTRUM_RTOL * top
    ref = np.linalg.eigvalsh(an_hamiltonian(n, L))

    def check(result) -> list[str]:
        problems: list[str] = []
        payload = _payload(result, 0, problems)
        if payload is None:
            return problems
        got = np.sort(np.asarray(payload["eigenvalues"], dtype=float))
        if got.shape != ref.shape:
            return problems + [f"{got.size} eigenvalues, expected {ref.size}"]
        dev = float(np.max(np.abs(got - ref)))
        if dev > tol:
            problems.append(f"eigenvalues differ from LAPACK by {dev:.3e}")
        multiplicity = int(np.sum(np.abs(got - top) <= tol))
        if multiplicity != math.comb(L + n, n):
            problems.append(f"top eigenvalue multiplicity {multiplicity}, "
                            f"expected {math.comb(L + n, n)}")
        below = got[got < top - tol]
        if below.size == 0 or abs((top - below.max()) - gap) > tol:
            problems.append(f"spectral gap differs from {gap}")
        return problems
    return check


def check_markov_an(n: int, L: int):
    sectors = [list(s) for s in an_sectors(n, L)]

    def check(result) -> list[str]:
        problems: list[str] = []
        payload = _payload(result, 0, problems)
        if payload is None:
            return problems
        if payload["states"] != (n + 1) ** L:
            problems.append(f"{payload['states']} states, expected {(n + 1) ** L}")
        if payload["closed_sets"] != sectors:
            problems.append("closed sets are not the site-value sectors")
        if payload["absorbing"] != all_equal_states(n, L):
            problems.append(f"absorbing states {payload['absorbing']}, expected the all-equal states")
        if payload["reducible"] is not True:
            problems.append("chain reported irreducible")
        return problems
    return check


def check_simulate(closed_set, init: int, seed: int, dim: int):
    """The reported closed set is the oracle's, and the occupation is a law on it.

    max_dev_sigma is not checked: it ignores autocorrelation and reads 3 to 9
    on correct samplers.
    """
    closed_set = list(closed_set)
    outside = np.ones(dim, dtype=bool)
    outside[np.asarray(closed_set) - 1] = False

    def check(result) -> list[str]:
        problems: list[str] = []
        payload = _payload(result, 0, problems)
        if payload is None:
            return problems
        if payload["seed"] != seed or payload["init"] != init:
            problems.append("summary does not echo the seed and initial state")
        if payload["closed_set"] != closed_set:
            problems.append("closed set of the initial state differs from the oracle's")
        occupation = np.asarray(payload["occupation"], dtype=float)
        if occupation.shape != (dim,):
            return problems + [f"occupation has {occupation.size} entries, expected {dim}"]
        if abs(occupation.sum() - 1.0) > MASS_TOL or occupation.min() < 0.0:
            problems.append("occupation is not a probability vector")
        if np.any(occupation[outside] != 0.0):
            problems.append("occupation leaves the closed set")
        return problems
    return check


def check_semigroup(n: int, L: int, t: float):
    """e^(Qt) and e^(Qt/2) match the eigenbasis route V e^(Lambda t) V^T, compose,
    and are stochastic.

    The routes are compared on a few random probe vectors rather than as full
    matrices, so that only the probes' images are kept.
    """
    dim = (n + 1) ** L
    probes = np.random.default_rng(0).standard_normal((dim, SEMIGROUP_PROBES))
    w, v = an_intensity_eigensystem(n, L)
    refs = {time_: v @ (np.exp(w * time_)[:, None] * (v.T @ probes)) for time_ in (t, t / 2)}

    def check(result) -> list[str]:
        full, half = result
        problems = []
        for label, got, time_ in (("t", full, t), ("t/2", half, t / 2)):
            if got.shape != (dim, dim):
                problems.append(f"e^(Q {label}) has shape {got.shape}, expected {(dim, dim)}")
                continue
            dev = float(np.max(np.abs(got @ probes - refs[time_])))
            if dev > SEMIGROUP_TOL:
                problems.append(f"e^(Q {label}) differs from V e^(Lt) V^T by {dev:.3e}")
            if float(np.max(np.abs(got.sum(axis=0) - 1.0))) > SEMIGROUP_TOL:
                problems.append(f"e^(Q {label}) columns do not sum to one")
            if float(got.min()) < 0.0:
                problems.append(f"e^(Q {label}) has a negative entry")
        if not problems:
            dev = float(np.max(np.abs(half @ (half @ probes) - full @ probes)))
            if dev > SEMIGROUP_TOL:
                problems.append(f"e^(Qt/2)^2 differs from e^(Qt) by {dev:.3e}")
        return problems
    return check
