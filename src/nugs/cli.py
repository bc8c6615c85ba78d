"""Command-line interface.

Commands: ``reconstruct``, ``stability``, ``residual``, ``gap``,
``scaling``, ``figure1``.  All output is CSV/JSON/SVG with LF endings so
reruns with the same seed are byte-identical.  Exit codes: 0 success,
1 usage or input error, 2 numerical instability.
"""

from __future__ import annotations

import argparse
import functools
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
from .validation import check_count, check_positive_finite, check_threshold, write_csv


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
        if len(parts) > 2:
            raise ValueError(f"scheme {text!r}: the jitter fraction is the only parameter")
        try:
            theta = float(parts[1]) if len(parts) > 1 else 0.2
        except ValueError:
            raise ValueError(f"scheme {text!r}: the jitter fraction {parts[1]!r} "
                             "is not a number") from None
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
    grid_points = check_count(args.grid_points, "grid_points")
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
        f = (FunctionSpec.from_json(Path(args.function_json).read_text(encoding="utf-8"))
             if args.function_json else FunctionSpec.benchmark())
        data = fourier.sample_function(f, s)
        weights_source = "computed"
    rec = solver.reconstruct(basis, data)
    out = _out_dir(args)
    (out / "coefficients.json").write_text(rec.to_json() + "\n", encoding="utf-8")
    grid = (np.arange(grid_points) + 0.5) / grid_points
    vals = spaces.member_values(basis, rec.coefficients, grid)
    write_csv(out / "reconstruction.csv", ("x", "re", "im"),
              np.column_stack((grid, vals.real, vals.imag)).ravel().tolist())
    constants = solver.frame_constants(sampling.density(data.samples), rec.sigma_min**2)
    diag = {"delta": constants.density, "frame_lower": constants.lower,
            "c_ratio": constants.ratio, "residual": rec.residual,
            "sigma_min": rec.sigma_min, "sigma_max": rec.sigma_max,
            "weights": weights_source}
    (out / "diagnostics.json").write_text(json.dumps(diag) + "\n", encoding="utf-8")
    print(json.dumps(diag))
    return 0


def cmd_stability(args) -> int:
    space = parse_space(args.space)
    if args.k is None or args.n is None:
        raise ValueError("stability needs --k and --n")
    if args.threshold is not None:
        check_threshold(args.threshold)
    s = sampling.generate(parse_scheme(args.scheme, args.n, args.k, args.seed))
    constants = solver.stability_constant(fourier.cached_basis(space), s)
    print(constants.to_json())
    if args.threshold is not None and constants.ratio > args.threshold:
        return 2
    return 0


def cmd_residual(args) -> int:
    space = parse_space(args.space)
    if not (np.isfinite(args.zmin) and args.zmin >= 0):
        raise ValueError(f"zmin must be finite and non-negative, got {args.zmin!r}")
    zs = np.geomspace(max(args.zmin, 1e-3), check_positive_finite(args.zmax, "zmax"),
                      check_count(args.zcount, "zcount"))
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
    scheme = parse_scheme(args.scheme, 2, 5.0, args.seed)
    kind = scheme.kind
    rows = experiments.scaling_table(
        family, kind, _k_grid(args), d=d, threshold=args.threshold,
        delta_max=args.delta_max, theta=scheme.theta, seed=args.seed, jobs=args.jobs)
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
    ks = _k_grid(args)
    written = experiments.run_figure_panels(
        _out_dir(args), seed=args.seed, k_grid=ks, jobs=args.jobs,
        threshold=args.threshold, delta_max=args.delta_max)
    for path in written:
        print(f"wrote {path}")
    return 0


# the options that more than one subcommand reads, by destination
_SHARED = {
    "seed": ("--seed", {"type": int, "default": 0}),
    "jobs": ("--jobs", {"type": int, "default": 1}),
    "threshold": ("--threshold", {"type": float, "default": 3.0}),
    "delta_max": ("--delta-max", {"type": float, "default": 0.9}),
    "scheme": ("--scheme", {"default": "jittered",
                            "help": "uniform | jittered[:theta] | log"}),
    "k": ("--k", {"type": float, "default": None}),
    "n": ("--n", {"type": int, "default": None}),
    "kmin": ("--kmin", {"type": float, "default": 5.0}),
    "kmax": ("--kmax", {"type": float, "default": 200.0}),
    "kcount": ("--kcount", {"type": int, "default": 16}),
}
_SAMPLES = ("scheme", "k", "n")
_GRID = ("kmin", "kmax", "kcount")


def build_parser() -> _Parser:
    parser = _Parser(prog="nugs", description=__doc__)
    # no prefix matching, so an unknown option never reads as a longer one
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=functools.partial(_Parser, allow_abbrev=False))

    def common(p, *names):
        """``--out-dir``, which every subcommand takes, and the named shared
        options: a subcommand accepts only the options it reads."""
        p.add_argument("--out-dir", default=None,
                       help="output directory (default $NUGS_OUT_DIR or .)")
        for name in names:
            flag, kwargs = _SHARED[name]
            p.add_argument(flag, **kwargs)

    p = sub.add_parser("reconstruct", help="weighted least-squares reconstruction")
    p.add_argument("--space", required=True)
    p.add_argument("--input", default=None, help="CSV omega,re,im[,weight]")
    p.add_argument("--function-json", default=None)
    p.add_argument("--grid-points", type=int, default=512)
    common(p, "seed", "delta_max", *_SAMPLES)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("stability", help="frame constants for a space/scheme pair")
    p.add_argument("--space", required=True)
    common(p, "seed", "threshold", *_SAMPLES)
    # no threshold by default: print constants and exit 0 unless one is given
    p.set_defaults(func=cmd_stability, threshold=None)

    p = sub.add_parser("residual", help="out-of-band residual curve")
    p.add_argument("--space", required=True)
    p.add_argument("--zmin", type=float, default=0.5)
    p.add_argument("--zmax", type=float, required=True)
    p.add_argument("--zcount", type=int, default=32)
    common(p)
    p.set_defaults(func=cmd_residual)

    p = sub.add_parser("gap", help="gap to piecewise constants and its bound")
    p.add_argument("--space", required=True)
    p.add_argument("--l", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("scaling", help="stability-limited dimension sweep")
    p.add_argument("--family", choices=experiments.FAMILIES, required=True)
    p.add_argument("--d", type=int, default=3, help="spline degree")
    common(p, "seed", "jobs", "threshold", "delta_max", "scheme", *_GRID)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("figure1", help="all four benchmark panels")
    common(p, "seed", "jobs", "threshold", "delta_max", *_GRID)
    p.set_defaults(func=cmd_figure1)
    return parser


# parsing keeps no state between calls, so one parser serves every call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
