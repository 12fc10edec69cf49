"""Command-line front end.

Every subcommand prints one JSON report to stdout (and writes it, plus any
CSV artifacts, under ``--output-dir`` when given).  Reports embed the
command line and version, plus the seed and tolerance of the subcommands
that take those flags, and are byte-identical across runs with identical
flags on one host and numpy build.  Each subcommand accepts only the flags
it reads.  Exit codes: 0 success, 1 failed verification, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from . import __version__, barrier, core, geometry, modulus, radial, verify
from .errors import ArgumentError, DomainError, QuadratureError, spec_number


def _report(args, result: dict, name: str, extra_files: dict | None = None) -> str:
    payload = {
        "command": "hessiankit " + " ".join(args.raw_argv),
        "version": __version__,
        "result": result,
    }
    payload.update({key: getattr(args, key) for key in ("seed", "tol") if hasattr(args, key)})
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise DomainError("the result is not finite; no report is written") from None
    if args.output_dir:
        os.makedirs(args.output_dir, exist_ok=True)
        with open(os.path.join(args.output_dir, f"{name}.json"), "w") as fh:
            fh.write(text)
        for fname, content in (extra_files or {}).items():
            with open(os.path.join(args.output_dir, fname), "w") as fh:
                fh.write(content)
    return text


def finite_float(text: str) -> float:
    """argparse type for float flags: a finite number."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def positive_int(text: str) -> int:
    """argparse type for count flags: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def seed_int(text: str) -> int:
    """argparse type for --seed: an integer >= 0, as numpy's generators take."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _parse_lambda(text: str) -> np.ndarray:
    return np.array([spec_number(x, text) for x in text.split(",") if x])


def cmd_cone(args) -> int:
    lam = _parse_lambda(args.lam)
    rep = core.gamma_m_contains(lam, args.m, tol=args.tol)
    result = {
        "lambda": lam.tolist(),
        "m": args.m,
        "h_values": rep.h_values.tolist(),
        "member": rep.member,
        "margin": rep.margin,
    }
    sys.stdout.write(_report(args, result, "cone"))
    return 0


def cmd_garding(args) -> int:
    forms = core.sample_gamma_hat(args.n, args.m, args.samples * args.m, args.seed)
    effective = args.tol if args.tol is not None else 1e-10
    rep = core.garding_check(forms.reshape(args.samples, args.m, args.n, args.n), tol=effective)
    margins = rep.margin
    result = {
        "n": args.n,
        "m": args.m,
        "samples": args.samples,
        "min_margin": float(margins.min()),
        "mean_margin": float(margins.mean()),
        "max_margin": float(margins.max()),
        "tol_effective": effective,
        "pass": bool(np.all(rep.passed)),
    }
    sys.stdout.write(_report(args, result, "garding"))
    return 0


def cmd_modulus(args) -> int:
    try:
        with warnings.catch_warnings():
            # numpy warns on a file without data rows; that is an error below
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(args.input, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ArgumentError(f"cannot read input CSV {args.input!r}: {exc}") from None
    if rows.shape[0] == 0:
        raise ArgumentError("input CSV has no data rows")
    if rows.shape[1] < 2:
        raise ArgumentError("input CSV needs coordinate columns plus a value column")
    points = rows[:, :-1]
    values = rows[:, -1]
    curve = modulus.estimate_modulus(
        points, values, bins=args.bins, t_max=args.t_max, seed=args.seed
    )
    majorant = modulus.concave_majorant(curve)
    result = {
        "points": int(points.shape[0]),
        "bins": args.bins,
        "t_max": curve.length,
        "knots": len(curve),
        "omega_end": float(curve.w[-1]),
    }
    files = {"modulus.csv": curve.to_csv(), "modulus_majorant.csv": majorant.to_csv()}
    text = _report(args, result, "modulus", files)
    sys.stdout.write(files["modulus.csv"] if args.format == "csv" else text)
    return 0


def cmd_barrier(args) -> int:
    domain = geometry.Domain.parse(args.domain, n=args.n)
    data = barrier.make_boundary_data(args.phi, domain)
    density = radial.parse_density(args.f, args.m)
    if not isinstance(density, radial.ConstDensity):
        raise ArgumentError(f"barrier takes the density zero or const:c, got {args.f!r}")
    env = barrier.build_subsolution(
        data, None, domain, m=args.m, xi_count=args.xi_samples, seed=args.seed, f_sup=density.c0
    )
    rep = barrier.verify_modulus_bound(
        env, data, domain, m=args.m, f_sup_norm=density.c0,
        grid=args.grid, bins=args.bins, seed=args.seed, ceiling=args.ceiling,
    )
    _, vx, px = env.boundary_values()
    result = rep.to_json_dict()
    result.update(boundary_gap=float(np.max(np.abs(vx - px))), xi_samples=args.xi_samples,
                  domain=args.domain, phi=args.phi, f=args.f,
                  params_first=env.barriers.describe())
    sys.stdout.write(_report(args, result, "barrier"))
    return 0 if rep.passed else 1


def cmd_radial(args) -> int:
    density = radial.parse_density(args.density, args.m)
    problem = radial.RadialProblem(
        n=args.n, m=args.m, density=density, convention=args.convention
    )
    grid = np.linspace(0.0, 1.0, args.grid + 1)
    if isinstance(density, radial.LogDensity):
        grid[0] = 1e-8  # profile may diverge at 0 for borderline densities
    tol = args.tol if args.tol is not None else 1e-10
    sol = radial.radial_solve(problem, grid=grid, tol=tol)
    residual = None
    if sol.r.size >= 200:
        residual = radial.radial_hessian_residual(sol, problem, r_min=0.02, r_max=0.98)
    result = {
        "problem": problem.describe(),
        "B_used": sol.B_used,
        "quadrature_tol": tol,
        "achieved_error": sol.achieved_error,
        "panels_bisected": sol.panels_bisected,
        "worst_panel_error": sol.worst_panel_error,
        "U_first": float(sol.u[0]),
        "r_first": float(sol.r[0]),
        "hessian_residual": residual,
    }
    files = {"radial.csv": sol.to_csv()}
    text = _report(args, result, "radial", files)
    sys.stdout.write(files["radial.csv"] if args.format == "csv" else text)
    return 0


def cmd_gamma(args) -> int:
    value = radial.gamma_exponent(args.n, args.m, args.p, args.r)
    result = {
        "n": args.n,
        "m": args.m,
        "p": args.p,
        "r": args.r,
        "gamma_r": value,
        "targets": radial.gamma_targets(args.n, args.m, args.p),
    }
    sys.stdout.write(_report(args, result, "gamma"))
    return 0


def cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    report = verify.run_suites(names, seed=args.seed)
    sys.stdout.write(_report(args, report, "verify"))
    return 0 if report["all_passed"] else 1


def _load_config(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hessiankit")
    parser.add_argument("--version", action="version", version=__version__)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output-dir", default=None)
    common.add_argument("--config", default=None,
                        help="key=value file of flags this subcommand takes; flags win")

    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, seed=False, tol=False, fmt=False):
        p = sub.add_parser(name, parents=[common])
        p.set_defaults(func=func)
        if seed:
            p.add_argument("--seed", type=seed_int, default=42)
        if tol:
            p.add_argument("--tol", type=finite_float, default=None)
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        return p

    p = add("cone", cmd_cone, tol=True)
    p.add_argument("--lambda", dest="lam", required=True, help="comma separated eigenvalues")
    p.add_argument("--m", type=int, required=True)

    p = add("garding", cmd_garding, seed=True, tol=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--samples", type=positive_int, default=1000)

    p = add("modulus", cmd_modulus, seed=True, fmt=True)
    p.add_argument("--input", required=True, help="CSV: coordinates..., value")
    p.add_argument("--bins", type=positive_int, default=200)
    p.add_argument("--t-max", type=finite_float, default=None)

    p = add("barrier", cmd_barrier, seed=True)
    p.add_argument("--domain", default="ball:1")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--phi", default="re_z1", help="re_z1 | psi_sqrt | const:c")
    p.add_argument("--f", default="zero", help="zero | const:c")
    p.add_argument("--xi-samples", type=positive_int, default=500)
    p.add_argument("--grid", type=positive_int, default=20000)
    p.add_argument("--bins", type=positive_int, default=200)
    p.add_argument("--ceiling", type=finite_float, default=None)

    p = add("radial", cmd_radial, tol=True, fmt=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--density", default="const:1", help="const:c | power:a | log:g | zero")
    p.add_argument("--convention", choices=radial.CONVENTIONS, default="form")
    p.add_argument("--grid", type=positive_int, default=2000)

    p = add("gamma", cmd_gamma)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p", type=finite_float, required=True)
    p.add_argument("--r", type=finite_float, default=1.0)

    p = add("verify", cmd_verify, seed=True)
    p.add_argument("--suite", default="all", choices=["all", *verify.SUITES])

    return parser


def _splice_config(argv: list) -> list:
    """Insert config-file entries as flags right after the subcommand.

    Later flags override earlier ones in argparse, so explicit flags keep
    precedence over the config file.
    """
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None or not argv:
        return argv
    extra = []
    for key, value in _load_config(path).items():
        extra += [f"--{key.replace('_', '-')}", value]
    return argv[:1] + extra + argv[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_splice_config(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except OSError as exc:
        sys.stderr.write(f"cannot read config: {exc}\n")
        return 2
    args.raw_argv = argv
    try:
        return args.func(args)
    except (ArgumentError, DomainError, QuadratureError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
