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
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis, experiments, fourier, sampling, solver, spaces
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
    """``uniform``, ``jittered[:theta]`` or ``log``; the seed, and the even
    count of a log scheme, are checked here under their options' names."""
    parts = text.strip().split(":")
    kind = parts[0]
    check_count(seed, "--seed", 0)
    if kind == "log" and n % 2 != 0:
        raise ValueError(f"--n: the log scheme requires an even sample count, got {n}")
    theta = 0.0
    if kind == "jittered":
        if len(parts) > 2:
            raise ValueError(f"scheme {text!r}: the jitter fraction is the only parameter")
        try:
            theta = float(parts[1]) if len(parts) > 1 else experiments._THETA
        except ValueError:
            raise ValueError(f"scheme {text!r}: the jitter fraction {parts[1]!r} "
                             "is not a number") from None
    elif len(parts) > 1:
        raise ValueError(f"scheme {kind!r} takes no parameter")
    return SchemeSpec(kind=kind, n=n, k=k, theta=theta, seed=seed)


def _out_path(args) -> Path:
    return Path(args.out_dir or os.environ.get("NUGS_OUT_DIR") or ".")


def _out_dir(args) -> Path:
    _out_path(args).mkdir(parents=True, exist_ok=True)
    return _out_path(args)


def _k_grid(args) -> np.ndarray:
    return experiments.default_k_grid(args.kmin, args.kmax, args.kcount)


def cmd_reconstruct(args) -> int:
    space = parse_space(args.space)
    grid_points = check_count(args.grid_points, "grid_points")
    basis = fourier.cached_basis(space)
    if args.input:
        data, had_weights = fourier.load_data_csv(args.input, bandwidth=args.k,
                                                  bandwidth_name="--k")
        weights_source = "file" if had_weights else "computed"
    else:
        if args.k is None:
            raise ValueError("synthetic reconstruction needs --k")
        n = args.n if args.n is not None else experiments.plan_scheme(
            parse_scheme(args.scheme, 2, args.k, args.seed).kind, args.k,
            delta_max=args.delta_max, seed=args.seed).n
        s = sampling.generate(parse_scheme(args.scheme, check_count(n, "--n", 2), args.k,
                                           args.seed))
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
    s = sampling.generate(parse_scheme(args.scheme, check_count(args.n, "--n", 2), args.k,
                                       args.seed))
    constants = solver.stability_constant(fourier.cached_basis(space), s)
    print(constants.to_json())
    return 2 if args.threshold is not None and constants.ratio > args.threshold else 0


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
    # only the kind and theta of the scheme are read, not its n and k
    scheme = parse_scheme(args.scheme, 2, 1.0, args.seed)
    rows = experiments.scaling_table(
        args.family, scheme.kind, _k_grid(args), d=args.d, threshold=args.threshold,
        delta_max=args.delta_max, theta=scheme.theta, seed=args.seed, jobs=args.jobs)
    label = experiments._label(args.family, args.d)
    csv_path, _ = experiments._write_panel(
        _out_path(args), f"scaling_{label}_{scheme.kind}",
        [replace(r, family=label) for r in rows], f"dimension ratio, {scheme.kind}",
        with_family=False)
    print(f"wrote {csv_path}")
    return 0


def cmd_figure1(args) -> int:
    # run_figure_panels makes the directory once every option is checked
    written = experiments.run_figure_panels(
        _out_path(args), seed=check_count(args.seed, "--seed", 0), k_grid=_k_grid(args),
        jobs=args.jobs, threshold=args.threshold, delta_max=args.delta_max)
    for path in written:
        print(f"wrote {path}")
    return 0


# the options that more than one subcommand reads, by destination
_SHARED = {
    "seed": ("--seed", {"type": int, "default": 0}),
    "jobs": ("--jobs", {"type": int, "default": 1}),
    "threshold": ("--threshold", {"type": float, "default": experiments._THRESHOLD}),
    "delta_max": ("--delta-max", {"type": float, "default": experiments._DELTA_MAX}),
    "scheme": ("--scheme", {"default": "jittered",
                            "help": "uniform | jittered[:theta] | log"}),
    "k": ("--k", {"type": float, "default": None}),
    "n": ("--n", {"type": int, "default": None}),
    "kmin": ("--kmin", {"type": float, "default": experiments._K_GRID[0]}),
    "kmax": ("--kmax", {"type": float, "default": experiments._K_GRID[1]}),
    "kcount": ("--kcount", {"type": int, "default": experiments._K_GRID[2]}),
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
    except (NugsError, ValueError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the allocation; Python's own is blank
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
