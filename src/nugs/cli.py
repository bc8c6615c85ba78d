"""Command-line interface.

Commands: ``reconstruct``, ``stability``, ``residual``, ``gap``,
``scaling``, ``figure1``.  All output is CSV/JSON/SVG with LF endings so
reruns with the same seed are byte-identical.  Exit codes: 0 success,
1 usage or input error, 2 numerical instability.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, experiments, fourier, sampling, solver, spaces, svgplot
from .errors import BandwidthTooSmallError, NugsError, UnstableReconstructionError
from .estimator import parse_space
from .fourier import FunctionSpec
from .sampling import SchemeSpec


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we reserve that
        raise _UsageError(message)


def parse_scheme(text: str, n: int, k: float, seed: int) -> SchemeSpec:
    """``uniform``, ``jittered[:theta]`` or ``log``."""
    parts = text.strip().split(":")
    kind = parts[0]
    theta = 0.0
    if kind == "jittered":
        theta = float(parts[1]) if len(parts) > 1 else 0.2
    elif len(parts) > 1:
        raise ValueError(f"scheme {kind!r} takes no parameter")
    return SchemeSpec(kind=kind, n=n, k=k, theta=theta, seed=seed)


def _out_dir(args) -> Path:
    root = args.out_dir or os.environ.get("NUGS_OUT_DIR") or "."
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _k_grid(args) -> np.ndarray:
    return experiments.default_k_grid(args.kmin, args.kmax, args.kcount)


def cmd_reconstruct(args) -> int:
    space = parse_space(args.space)
    basis = fourier.cached_basis(space)
    if args.input:
        data, had_weights = fourier.load_data_csv(args.input, bandwidth=args.k)
        weights_source = "file" if had_weights else "computed"
    else:
        if args.k is None:
            raise ValueError("synthetic reconstruction needs --k")
        n = args.n or experiments.plan_scheme(
            parse_scheme(args.scheme, 2, args.k, args.seed).kind, args.k,
            delta_max=args.delta_max, seed=args.seed).n
        s = sampling.generate(parse_scheme(args.scheme, n, args.k, args.seed))
        f = _function_spec(args)
        data = fourier.sample_function(f, s)
        weights_source = "computed"
    rec = solver.reconstruct(basis, data)
    out = _out_dir(args)
    (out / "coefficients.json").write_text(rec.to_json() + "\n", encoding="utf-8")
    grid = (np.arange(args.grid_points) + 0.5) / args.grid_points
    vals = rec.coefficients @ spaces.evaluate(basis, grid)
    with open(out / "reconstruction.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,re,im\n")
        for x, v in zip(grid, np.atleast_1d(vals)):
            fh.write(f"{float(x)!r},{float(v.real)!r},{float(v.imag)!r}\n")
    constants = solver.frame_constants(sampling.density(data.samples), rec.sigma_min**2)
    diag = {"delta": constants.density, "frame_lower": constants.lower,
            "c_ratio": constants.ratio, "residual": rec.residual,
            "sigma_min": rec.sigma_min, "sigma_max": rec.sigma_max,
            "weights": weights_source}
    (out / "diagnostics.json").write_text(json.dumps(diag) + "\n", encoding="utf-8")
    print(json.dumps(diag))
    return 0


def _function_spec(args) -> FunctionSpec:
    if getattr(args, "function_json", None):
        return FunctionSpec.from_json(Path(args.function_json).read_text(encoding="utf-8"))
    name = getattr(args, "function", "benchmark")
    if name != "benchmark":
        raise ValueError(f"unknown builtin function {name!r}")
    return FunctionSpec.benchmark()


def cmd_stability(args) -> int:
    space = parse_space(args.space)
    if args.k is None or args.n is None:
        raise ValueError("stability needs --k and --n")
    s = sampling.generate(parse_scheme(args.scheme, args.n, args.k, args.seed))
    constants = solver.stability_constant(fourier.cached_basis(space), s)
    print(constants.to_json())
    if args.threshold is not None and constants.ratio > args.threshold:
        return 2
    return 0


def cmd_residual(args) -> int:
    space = parse_space(args.space)
    zs = np.geomspace(max(args.zmin, 1e-3), args.zmax, args.zcount)
    curve = analysis.residual_curve(space, zs)
    out = _out_dir(args)
    curve.save_csv(out / "residual.csv")
    print(f"wrote {out / 'residual.csv'}")
    return 0


def cmd_gap(args) -> int:
    space = parse_space(args.space)
    report = analysis.verify_gap_bound(space, args.l)
    print(report.to_json())
    return 0


def cmd_scaling(args) -> int:
    family = args.family
    d = args.d
    kind = parse_scheme(args.scheme, 2, 5.0, args.seed).kind
    theta = parse_scheme(args.scheme, 2, 5.0, args.seed).theta
    rows = experiments.scaling_table(
        family, kind, _k_grid(args), d=d, threshold=args.threshold,
        delta_max=args.delta_max, theta=theta, seed=args.seed, jobs=args.jobs)
    out = _out_dir(args)
    label = family if family != "spline" else f"spline_d{d}"
    csv_path = out / f"scaling_{label}_{kind}.csv"
    experiments.write_scaling_csv(csv_path, rows)
    svgplot.line_plot(out / f"scaling_{label}_{kind}.svg",
                      [(label, [r.k for r in rows], [r.ratio for r in rows])],
                      title=f"dimension ratio, {kind}", xlabel="K",
                      ylabel="ratio", logx=True)
    print(f"wrote {csv_path}")
    return 0


def cmd_figure1(args) -> int:
    out = _out_dir(args)
    written = experiments.run_figure_panels(
        out, seed=args.seed, k_grid=_k_grid(args), jobs=args.jobs,
        threshold=args.threshold, delta_max=args.delta_max)
    for path in written:
        print(f"wrote {path}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="nugs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, scheme=True, grids=False):
        p.add_argument("--out-dir", default=None,
                       help="output directory (default $NUGS_OUT_DIR or .)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--threshold", type=float, default=3.0)
        p.add_argument("--delta-max", type=float, default=0.9)
        if scheme:
            p.add_argument("--scheme", default="jittered",
                           help="uniform | jittered[:theta] | log")
            p.add_argument("--k", type=float, default=None)
            p.add_argument("--n", type=int, default=None)
        if grids:
            p.add_argument("--kmin", type=float, default=5.0)
            p.add_argument("--kmax", type=float, default=200.0)
            p.add_argument("--kcount", type=int, default=16)

    p = sub.add_parser("reconstruct", help="weighted least-squares reconstruction")
    p.add_argument("--space", required=True)
    p.add_argument("--input", default=None, help="CSV omega,re,im[,weight]")
    p.add_argument("--function", default="benchmark")
    p.add_argument("--function-json", default=None)
    p.add_argument("--grid-points", type=int, default=512)
    common(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("stability", help="frame constants for a space/scheme pair")
    p.add_argument("--space", required=True)
    common(p)
    # no threshold by default: print constants and exit 0 unless one is given
    p.set_defaults(func=cmd_stability, threshold=None)

    p = sub.add_parser("residual", help="out-of-band residual curve")
    p.add_argument("--space", required=True)
    p.add_argument("--zmin", type=float, default=0.5)
    p.add_argument("--zmax", type=float, required=True)
    p.add_argument("--zcount", type=int, default=32)
    common(p, scheme=False)
    p.set_defaults(func=cmd_residual)

    p = sub.add_parser("gap", help="gap to piecewise constants and its bound")
    p.add_argument("--space", required=True)
    p.add_argument("--l", type=int, required=True)
    common(p, scheme=False)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("scaling", help="stability-limited dimension sweep")
    p.add_argument("--family", choices=experiments.FAMILIES, required=True)
    p.add_argument("--d", type=int, default=3, help="spline degree")
    common(p, grids=True)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("figure1", help="all four benchmark panels")
    common(p, scheme=False, grids=True)
    p.set_defaults(func=cmd_figure1)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (UnstableReconstructionError, BandwidthTooSmallError) as exc:
        print(f"unstable: {exc}", file=sys.stderr)
        return 2
    except (NugsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
