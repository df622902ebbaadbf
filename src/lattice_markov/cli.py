"""Command-line front end.

Verbs: verify (certification suites), build (matrix export), spectrum,
markov (structure analysis), simulate (trajectory sampling). Exit codes:
0 all checks passed, 1 a check failed, 2 usage or guard error. All state
indices printed are 1-based.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__, verify
from .lattice_an import ChainSpec, hamiltonian, chain_spectrum
from .braid_tl import tl_from_an
from .linalg import save_matrix_csv, save_matrix_json
from .markov import LadderParams, build_an_markov, build_ladder_markov, closed_sets
from .reporting import Tolerance
from .simulate import occupation_summary, simulate_ctmc, simulate_dtmc, trajectory_to_csv
from .su2_ladder import h0, h_doubleprime, h_ladder


def _default_seed() -> int:
    return int(os.environ.get("LATTICE_MARKOV_SEED", "0"))


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, default=str)
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _save_matrix(matrix, path: str, fmt: str) -> None:
    if fmt == "csv":
        save_matrix_csv(matrix, path)
    else:
        save_matrix_json(matrix, path)


def _cmd_verify(args) -> int:
    tol = Tolerance(abs_tol=args.tol)
    started = time.perf_counter()
    suites: dict[str, list] = {}
    if args.target in ("an", "all"):
        suites["an"] = verify.verify_an(args.n, args.L, tol)
    if args.target in ("ladder", "all"):
        suites["ladder"] = verify.verify_ladder(args.a, args.b, args.c, args.L, tol)
    checks = [report for reports in suites.values() for report in reports]
    payload = {
        "tool": "lattice-markov",
        "version": __version__,
        "target": args.target,
        "parameters": {"n": args.n, "L": args.L, "a": args.a, "b": args.b, "c": args.c},
        "tolerance": {"abs_tol": tol.abs_tol, "rel_tol": tol.rel_tol},
        "wall_time_s": round(time.perf_counter() - started, 6),
        "checks": [r.as_dict() for r in checks],
        "pass": all(r.passed for r in checks),
    }
    _emit(payload, args.out)
    return 0 if payload["pass"] else 1


def _build_chain(args):
    kind = "transition" if args.kind == "P" else "intensity"
    if args.target == "an":
        return build_an_markov(ChainSpec(args.n, args.L), kind)
    return build_ladder_markov(LadderParams(args.a, args.b, args.c), args.L, kind)


def _cmd_build(args) -> int:
    if args.kind in ("P", "Q"):
        matrix = _build_chain(args).matrix
    elif args.target == "an":
        spec = ChainSpec(args.n, args.L)
        if args.kind == "H":
            matrix = hamiltonian(spec).matrix
        elif args.kind == "E":
            matrix = tl_from_an(args.n).matrix
        else:
            raise ValueError(f"kind {args.kind} not available for target an (use H, P, Q, E)")
    elif args.kind == "Hpp":
        matrix = h_doubleprime(args.a, args.b, args.c)
    elif args.kind == "H":
        matrix = h_ladder()
    elif args.kind == "H0":
        matrix = h0(args.d, args.f)
    else:
        raise ValueError(f"kind {args.kind} not available for target ladder "
                         f"(use Hpp, H, H0, P, Q)")
    _save_matrix(matrix, args.out, args.format)
    return 0


def _cmd_spectrum(args) -> int:
    spec = ChainSpec(args.n, args.L)
    eigenvalues = chain_spectrum(hamiltonian(spec))
    _emit({"n": args.n, "L": args.L, "eigenvalues": [float(x) for x in eigenvalues]},
          args.out)
    return 0


def _cmd_markov(args) -> int:
    chain = _build_chain(args)
    analysis = closed_sets(chain)
    payload = {
        "kind": chain.kind,
        "target": args.target,
        "parameters": ({"n": args.n, "L": args.L} if args.target == "an"
                       else {"a": args.a, "b": args.b, "c": args.c, "L": args.L}),
        "states": chain.num_states,
        "absorbing": analysis.absorbing,
        "closed_sets": analysis.closed_sets,
        "reducible": analysis.reducible,
    }
    if args.matrix_out:
        _save_matrix(chain.matrix, args.matrix_out, args.format)
        payload["matrix_ref"] = args.matrix_out
    _emit(payload, args.out)
    return 0


def _cmd_simulate(args) -> int:
    chain = _build_chain(args)
    seed = args.seed if args.seed is not None else _default_seed()
    if chain.kind == "transition":
        if args.steps is None:
            raise ValueError("discrete-time simulation needs --steps")
        traj = simulate_dtmc(chain, args.init, args.steps, seed)
    else:
        if args.tmax is None:
            raise ValueError("continuous-time simulation needs --tmax")
        traj = simulate_ctmc(chain, args.init, args.tmax, seed)
    if args.trajectory_out:
        trajectory_to_csv(traj, args.trajectory_out, chain.spec)
    _emit(occupation_summary(chain, traj), args.out)
    return 0


def _add_model_flags(parser: argparse.ArgumentParser, ladder: bool = True) -> None:
    parser.add_argument("--n", type=int, default=1, help="chain rank (default 1)")
    parser.add_argument("--L", type=int, default=3, help="number of sites/rungs (default 3)")
    if ladder:
        parser.add_argument("--a", type=float, default=16.0, help="ladder parameter a")
        parser.add_argument("--b", type=float, default=0.0, help="ladder parameter b")
        parser.add_argument("--c", type=float, default=0.0, help="ladder parameter c")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lattice-markov",
        description="Integrable lattice operators and their exactly solvable Markov chains")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_verify = sub.add_parser("verify", help="run a certification suite")
    p_verify.add_argument("target", choices=["an", "ladder", "all"])
    _add_model_flags(p_verify)
    p_verify.add_argument("--tol", type=float, default=1e-10)
    p_verify.add_argument("--out", help="write the JSON report to a file")
    p_verify.set_defaults(func=_cmd_verify)

    p_build = sub.add_parser("build", help="construct and export a matrix")
    p_build.add_argument("target", choices=["an", "ladder"])
    p_build.add_argument("--kind", required=True, choices=["H", "P", "Q", "E", "Hpp", "H0"])
    _add_model_flags(p_build)
    p_build.add_argument("--d", type=float, default=1.0, help="two-parameter family d")
    p_build.add_argument("--f", type=float, default=0.0, help="two-parameter family f")
    p_build.add_argument("--format", choices=["csv", "json"], default="json")
    p_build.add_argument("--out", required=True)
    p_build.set_defaults(func=_cmd_build)

    p_spec = sub.add_parser("spectrum", help="eigenvalues of the chain Hamiltonian")
    p_spec.add_argument("target", choices=["an"])
    _add_model_flags(p_spec, ladder=False)
    p_spec.add_argument("--out")
    p_spec.set_defaults(func=_cmd_spectrum)

    p_markov = sub.add_parser("markov", help="absorbing states and closed sets")
    p_markov.add_argument("target", choices=["an", "ladder"])
    p_markov.add_argument("--kind", choices=["P", "Q"], default="P")
    _add_model_flags(p_markov)
    p_markov.add_argument("--format", choices=["csv", "json"], default="json")
    p_markov.add_argument("--out")
    p_markov.add_argument("--matrix-out", help="also export the matrix to this path")
    p_markov.set_defaults(func=_cmd_markov)

    p_sim = sub.add_parser("simulate", help="sample a trajectory")
    p_sim.add_argument("target", choices=["an", "ladder"])
    p_sim.add_argument("--kind", choices=["P", "Q"], default="Q")
    _add_model_flags(p_sim)
    p_sim.add_argument("--init", type=int, default=1, help="initial state (1-based)")
    p_sim.add_argument("--steps", type=int, help="steps for discrete time (kind P)")
    p_sim.add_argument("--tmax", type=float, help="horizon for continuous time (kind Q)")
    p_sim.add_argument("--seed", type=int,
                       help="RNG seed (default: LATTICE_MARKOV_SEED or 0)")
    p_sim.add_argument("--out", help="write the JSON summary to a file")
    p_sim.add_argument("--trajectory-out", help="write the sampled path as CSV")
    p_sim.set_defaults(func=_cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
