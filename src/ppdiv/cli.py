"""Command-line interface.

Subcommands:

    divergence   D_CS (and D_B for single-Gaussian intensities) between two
                 intensity files, by closed form, quadrature, or Monte Carlo
    simulate     one seeded scenario run -> per-step CSV
    montecarlo   a batch of runs -> mean/std OSPA CSV
    validate     the oracle battery -> report, nonzero exit on failure

Exit codes: 0 on success, 1 when validation fails, 2 on bad input
(unreadable file, malformed document, incompatible models).
"""

from __future__ import annotations

import argparse
import json
import sys

from .divergence import (
    PoissonModel,
    bhatt_poisson_gaussian,
    csd_poisson_gm,
    csd_poisson_quadrature,
    hellinger_sq_quadrature,
    intensity_grid,
)
from .gaussmix import HyperVolumeUnit, load_mixture, mixture_eval
from .harness import (
    POLICIES,
    run_montecarlo,
    run_simulation,
    write_mc_csv,
    write_run_csv,
)
from .pointprocess import RngStream, mc_csd
from .scenario import ConfigError, load_config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppdiv",
        description="Poisson point process divergences and sensor-management simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    div = sub.add_parser(
        "divergence", help="divergence between two Gaussian-mixture intensity files"
    )
    div.add_argument("--a", required=True, help="intensity JSON for the first process")
    div.add_argument("--b", required=True, help="intensity JSON for the second process")
    div.add_argument("--k", type=float, default=1.0, help="unit hyper-volume (default 1)")
    div.add_argument(
        "--method",
        choices=("closed", "quadrature", "montecarlo"),
        default="closed",
    )
    div.add_argument(
        "--samples", type=int, default=100_000, help="Monte Carlo sample count"
    )
    div.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")

    sim = sub.add_parser("simulate", help="one seeded scenario run")
    sim.add_argument("--config", required=True, help="scenario configuration JSON")
    sim.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    sim.add_argument("--out", required=True, help="per-step CSV path")
    sim.add_argument("--policy", choices=POLICIES, default="cs")

    mc = sub.add_parser("montecarlo", help="a batch of seeded runs")
    mc.add_argument("--config", required=True, help="scenario configuration JSON")
    mc.add_argument("--runs", type=int, required=True, help="number of runs")
    mc.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    mc.add_argument("--jobs", type=int, default=1, help="worker processes")
    mc.add_argument("--out", required=True, help="mean/std OSPA CSV path")
    mc.add_argument("--policy", choices=POLICIES, default="cs")

    val = sub.add_parser("validate", help="run the oracle battery")
    val.add_argument("--level", choices=("fast", "full"), default="fast")
    val.add_argument("--out", default=None, help="write the JSON report here")
    return parser


def _cmd_divergence(args) -> int:
    a = PoissonModel(load_mixture(args.a), HyperVolumeUnit(args.k))
    b = PoissonModel(load_mixture(args.b), HyperVolumeUnit(args.k))
    single = len(a.intensity) == 1 and len(b.intensity) == 1
    if args.method == "closed":
        print(f"D_CS (closed): {csd_poisson_gm(a, b)!r}")
        if single:
            print(f"D_B (closed): {bhatt_poisson_gaussian(a, b)!r}")
    elif args.method == "quadrature":
        pts, vol = intensity_grid([a.intensity, b.intensity])
        u_vals = mixture_eval(a.intensity, pts)
        v_vals = mixture_eval(b.intensity, pts)
        print(f"D_CS (quadrature): {csd_poisson_quadrature(u_vals, v_vals, vol, a.unit)!r}")
        if single:
            print(f"D_B (quadrature): {hellinger_sq_quadrature(u_vals, v_vals, vol)!r}")
    else:
        est, se = mc_csd(RngStream(args.seed), a, b, args.samples)
        print(f"D_CS (montecarlo): {est!r} +/- {se!r} (n={args.samples})")
    return 0


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    record = run_simulation(cfg, args.seed, policy=args.policy)
    write_run_csv(record, args.out)
    last = record.steps[-1]
    print(
        f"wrote {args.out}: {len(record.steps)} steps, policy {record.policy}, "
        f"seed {record.seed}, final OSPA {last.ospa:.3f}"
    )
    return 0


def _cmd_montecarlo(args) -> int:
    cfg = load_config(args.config)
    summary = run_montecarlo(
        cfg, args.runs, args.seed, parallelism=args.jobs, policy=args.policy
    )
    write_mc_csv(summary, args.out)
    steady = float(summary.ospa_mean[len(summary.ospa_mean) // 4 :].mean())
    print(
        f"wrote {args.out}: {summary.n_runs} runs, policy {summary.policy}, "
        f"master seed {summary.master_seed}, late-window mean OSPA {steady:.3f}, "
        f"{summary.elapsed_seconds:.1f}s"
    )
    return 0


def _cmd_validate(args) -> int:
    from .validate import validate_oracles

    report = validate_oracles(args.level)
    for entry in report["entries"]:
        status = "ok  " if entry["passed"] else "FAIL"
        print(
            f"{status} {entry['name']}: {entry['measure']:.3e} < {entry['tolerance']:.3e}"
            f"  ({entry['detail']})"
        )
    print(
        f"{report['n_entries'] - report['n_failed']}/{report['n_entries']} oracles passed "
        f"[{report['level']}] in {report['elapsed_seconds']:.1f}s"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"report written to {args.out}")
    return 0 if report["passed"] else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "divergence": _cmd_divergence,
        "simulate": _cmd_simulate,
        "montecarlo": _cmd_montecarlo,
        "validate": _cmd_validate,
    }[args.command]
    try:
        return handler(args)
    except (ConfigError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
