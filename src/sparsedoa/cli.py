"""Command-line interface.

Three subcommands: ``geometry`` inspects arrays and their difference
coarrays, ``run`` executes a single trial (optionally dumping the spectrum
and intermediate matrices), and ``sweep`` runs a full Monte-Carlo RMSE
sweep to CSV.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .coarray import _fix_vector_phases
from .geometry import compose_type2, difference_coarray, dof_bound
from .harness import ALGORITHMS, ExperimentConfig, GeometrySpec, run_trial, sweep


def _cmd_geometry(args) -> int:
    spec = GeometrySpec(args.label)
    geom = spec.build()
    profile = difference_coarray(geom)
    print("geometry:", spec.label)
    print("positions:", " ".join(str(p) for p in geom.positions))
    print("aperture:", geom.aperture)
    print("sdof:", profile.sdof)
    print("contiguous half:", profile.contiguous_half)
    print("hole-free:", "yes" if profile.is_hole_free else "no")
    if args.L is None:
        return 0
    layout = compose_type2(geom, args.L, args.mu)
    whole = layout.whole_array
    whole_profile = difference_coarray(whole)
    print("subarray offsets:", " ".join(str(o) for o in layout.offsets))
    print("whole array:", " ".join(str(p) for p in whole.positions))
    print("dof bound:", dof_bound(args.L, profile.sdof, args.mu, geom.aperture))
    print("whole-array sdof:", whole_profile.sdof)
    print("lag\tweight")
    for lag in whole_profile.lags:
        if lag >= 0:
            print(f"{lag}\t{whole_profile.weight(lag)}")
    return 0


def _dump_spectrum(spectrum, path) -> None:
    with open(path, "w") as handle:
        handle.write("theta,value\n")
        for theta, value in zip(spectrum.thetas, spectrum.values):
            handle.write(f"{theta:.9g},{value:.9g}\n")


def _dump_intermediates(artifacts, estimate, path) -> None:
    arrays = {
        "covariances": np.stack(artifacts.covariances),
        "spectrum_thetas": artifacts.spectrum.thetas,
        "spectrum_values": artifacts.spectrum.values,
        "estimates": estimate.thetas,
    }
    if artifacts.coarray_signals:
        arrays["coarray_lags"] = np.array(artifacts.coarray_signals[0].lags)
        arrays["coarray_values"] = np.stack([s.values for s in artifacts.coarray_signals])
        arrays["smoothed"] = np.stack([s.matrix for s in artifacts.smoothed])
        bases = [_fix_vector_phases(s.signal_basis) for s in artifacts.subspaces]
        arrays["signal_bases"] = np.stack(bases)
        arrays["eigenvalues"] = np.stack([s.eigenvalues for s in artifacts.subspaces])
    np.savez(path, **arrays)


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    snr_db = args.snr if args.snr is not None else config.snr_db_list[0]
    result = run_trial(
        config, snr_db, args.algorithm, trial_index=args.trial, geometry_index=args.geometry_index
    )
    estimate = result.estimate
    print("geometry:", config.geometries[args.geometry_index].label)
    print("algorithm:", args.algorithm)
    print(f"snr_db: {snr_db:g}")
    print("estimates:")
    for theta, value in zip(estimate.thetas, estimate.peak_values):
        print(f"  {theta:+.6f}  (peak {value:.6g})")
    if estimate.degraded:
        print("degraded: yes (fewer spectrum peaks than sources)")
    else:
        print(f"squared error: {result.squared_error:.9g}")
    if args.dump_spectrum is not None:
        _dump_spectrum(result.artifacts.spectrum, args.dump_spectrum)
        print("spectrum written to", args.dump_spectrum)
    if args.dump_intermediates is not None:
        _dump_intermediates(result.artifacts, estimate, args.dump_intermediates)
        print("intermediates written to", args.dump_intermediates)
    return 0


def _cmd_sweep(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    curves = sweep(config, out_path=args.out, workers=args.workers)
    for c in curves:
        print(
            f"{c.geometry} {c.algorithm} snr={c.snr_db:g} "
            f"rmse={c.rmse:.6g} failures={c.failures}/{c.trials}"
        )
    print("curves written to", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsedoa",
        description="Direction finding with partially calibrated sparse subarrays.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    geo = commands.add_parser("geometry", help="inspect an array and its coarray")
    geo.add_argument("label", metavar="LABEL", help="geometry label, such as mra-7 or naq2-4-3")
    geo.add_argument("--L", type=int, help="also compose this many subarrays")
    geo.add_argument("--mu", type=int, default=1, help="inter-subarray spacing (default 1)")
    geo.set_defaults(func=_cmd_geometry)

    run = commands.add_parser("run", help="run a single trial from a config file")
    run.add_argument("--config", required=True, help="JSON experiment config")
    run.add_argument("--algorithm", required=True, choices=list(ALGORITHMS))
    run.add_argument("--snr", type=float, help="SNR in dB (default: first in config)")
    run.add_argument("--trial", type=int, default=0, help="trial index (default 0)")
    run.add_argument("--geometry-index", type=int, default=0,
                     help="index into the config's geometry list (default 0)")
    run.add_argument("--dump-spectrum", metavar="PATH",
                     help="write the pseudo-spectrum as theta,value CSV")
    run.add_argument("--dump-intermediates", metavar="PATH",
                     help="write covariances, subspaces, and spectrum as .npz")
    run.set_defaults(func=_cmd_run)

    swp = commands.add_parser("sweep", help="Monte-Carlo RMSE sweep to CSV")
    swp.add_argument("--config", required=True, help="JSON experiment config")
    swp.add_argument("--out", required=True, help="output CSV path")
    swp.add_argument("--workers", type=int, default=1,
                     help="processes sharing the blocks of draws (default 1)")
    swp.add_argument("--seed", type=int, help="override the config seed")
    swp.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
