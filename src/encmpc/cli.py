"""Command-line workbench: synthesize, run, bench, attack.

Every command is driven by one RunConfig assembled from defaults, an
optional JSON config file, and command-line overrides (flags win).  All
randomness is seeded from the config, so rerunning a command with the
same inputs reproduces its CSV outputs byte for byte; wall-clock
measurements therefore go to stdout, never into a CSV.

Exit codes: 0 success, 1 runtime fault, 2 configuration error.
"""

import argparse
import logging
import math
import statistics
import sys
from dataclasses import fields as dataclass_fields
from pathlib import Path

from .attack import (attack_table_csv, check_episode, default_settings,
                     gather_observations, run_attack_table, NOISE_KINDS)
from .config import BACKENDS, ConfigError, RunConfig, from_dict, load_json
from .mpqp import PwaController, fmt_17g
from .paillier import gain_bitlen
from .protocol import COUNT_KEYS, F64Field, make_parties, predict_cost
from .simulation import (attack_scenario, benchmark_scenario, input_mismatch,
                         load_scenario, run_closed_loop, tracking_rmse,
                         trajectory_csv)

# Table V column order
ATTACK_BACKENDS = ("plaintext", "paillier", "qe", "qe_quantized")

CONFIG_FIELDS = tuple(f.name for f in dataclass_fields(RunConfig))


def build_config(args):
    """Merge defaults, config file, and flags; flags win.

    Returns (config, data) where data holds only the fields given
    explicitly, so a derived field can be derived again per sweep point.
    """
    data = load_json(args.config) if args.config else {}
    if isinstance(data, dict):  # from_dict refuses anything else
        data.update((key, val) for key, val in vars(args).items()
                    if key in CONFIG_FIELDS and val is not None)
    return from_dict(RunConfig, data, args.config or "command line"), data


def resolve_scenario(cfg, default):
    return load_scenario(cfg.scenario_path) if cfg.scenario_path else default()


def _controller_path(cfg):
    return Path(cfg.out_dir) / "controller.json"


def _load_controller(cfg):
    """The controller `encmpc synthesize` wrote, which run and bench need."""
    path = _controller_path(cfg)
    if not path.exists():
        raise ConfigError(f"controller file {path} not found; "
                          f"run `encmpc synthesize` first")
    return PwaController.load(path)


def _write_text(path, text):
    """The one writer of every output file: UTF-8, line ends as given."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def cmd_synthesize(cfg):
    scenario = resolve_scenario(cfg, benchmark_scenario)
    stats = {}
    controller = scenario.synthesize_controller(stats=stats)
    logging.getLogger("encmpc").info("synthesis funnel: %s", ", ".join(
        f"{key} {val}" for key, val in stats.items()))
    path = _controller_path(cfg)
    _write_text(path, controller.to_json() + "\n")
    radii = sorted(reg.cheb_radius for reg in controller.regions)
    mid = radii[len(radii) // 2]
    print(f"scenario {scenario.name}: {controller.nregions} regions -> {path}")
    print(f"chebyshev radii: min {fmt_17g(radii[0])} "
          f"median {fmt_17g(mid)} max {fmt_17g(radii[-1])}")
    return 0


def cmd_run(cfg):
    scenario = resolve_scenario(cfg, benchmark_scenario)
    controller = _load_controller(cfg)
    traj = run_closed_loop(scenario, cfg, controller=controller)
    out = Path(cfg.out_dir) / f"trajectory_{cfg.backend}.csv"
    _write_text(out, trajectory_csv(traj))
    if traj.records:
        mis_mean, mis_max = input_mismatch(traj)
        print(f"backend {cfg.backend}: {len(traj.records)} steps, "
              f"tracking rmse {tracking_rmse(traj):.6g}, "
              f"mismatch mean {mis_mean:.3e} max {mis_max:.3e} -> {out}")
    else:
        print(f"backend {cfg.backend}: no completed steps -> {out}")
    if traj.fault:
        print(f"fault at step {traj.fault_k}: {traj.fault}", file=sys.stderr)
        return 1
    return 0


def _coerce(text):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


# the fields bench reads per point; the scenario, the output directory
# and the attack's settings hold for the whole command
SWEEP_FIELDS = tuple(name for name in CONFIG_FIELDS if name not in (
    "scenario_path", "out_dir", "seed_attack", "attack_trials"))


def parse_sweep(spec):
    """Parse "field=v1,v2;field2=v3" into a list of override dicts.

    The empty spec is the single empty point.  Clauses cross-multiply in
    the order given, so row order is deterministic.  A field that is not
    one of SWEEP_FIELDS, or is named twice, is a ConfigError.
    """
    points = [{}]
    if not spec:
        return points
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        name, sep, values = clause.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ConfigError(f"bad sweep clause {clause!r}; "
                              f"expected field=value[,value...]")
        if name not in SWEEP_FIELDS:
            raise ConfigError(f"{name!r} is no sweep field; a sweep may name "
                              f"{', '.join(SWEEP_FIELDS)}")
        if name in points[0]:
            raise ConfigError(f"sweep field {name!r} is named twice")
        vals = [_coerce(v.strip()) for v in values.split(",") if v.strip()]
        if not vals:
            raise ConfigError(f"sweep clause {clause!r} lists no values")
        points = [dict(pt, **{name: v}) for pt in points for v in vals]
    return points


BENCH_COLUMNS = (
    "backend", "steps", "key_bits", "p_bits", "w_b", "w", "rho", "gamma",
    "delta", "epsilon_q", "rmse", "mismatch_max",
    "payload_s_to_c", "payload_c_to_a", "payload_total",
    *COUNT_KEYS,
    "cost_he", "cost_qe",
)


def _model_cost(controller, cfg):
    """predict_cost for one bench row: b_K from the fixed-point gains, p
    the binary64 that the qe parties compute in."""
    scale = cfg.rho ** cfg.delta
    b_K = gain_bitlen([[round(v * scale) for K in controller.gain_rows
                        for row in K for v in row]])
    return predict_cost(controller.n, controller.m, cfg.key_bits,
                        F64Field.bits, b_K)


def _bench_row(cfg, traj, controller):
    if traj.records:
        met = traj.records[0].cycle
        counts = met.counts
        payload = met.payload_bits
        cost = _model_cost(controller, cfg)
        _, mis_max = input_mismatch(traj)
    else:
        counts = {}
        payload = {}
        cost = {}
        mis_max = float("inf")
    vals = {
        "backend": traj.backend,
        "steps": len(traj.records),
        "key_bits": cfg.key_bits,
        "p_bits": F64Field.bits,
        "w_b": cfg.w_b,
        "w": cfg.w,
        "rho": cfg.rho,
        "gamma": cfg.gamma,
        "delta": cfg.delta,
        "epsilon_q": "" if cfg.epsilon_q is None else fmt_17g(cfg.epsilon_q),
        "rmse": fmt_17g(tracking_rmse(traj)),
        "mismatch_max": fmt_17g(mis_max),
        "payload_s_to_c": payload.get("s_to_c", 0),
        "payload_c_to_a": payload.get("c_to_a", 0),
        "payload_total": payload.get("total", 0),
        "cost_he": cost.get("C_HE", 0),
        "cost_qe": cost.get("C_QE", 0),
    }
    for key in COUNT_KEYS:
        vals[key] = counts.get(key, 0)
    return ",".join(str(vals[col]) for col in BENCH_COLUMNS)


def _median_wall(traj, part):
    """Median per-cycle wall time: a cold first cycle would skew a mean."""
    if not traj.records:
        return float("nan")
    return statistics.median(rec.cycle.wall_time[part] for rec in traj.records)


def cmd_bench(cfg, data, sweep_spec):
    scenario = resolve_scenario(cfg, benchmark_scenario)
    controller = _load_controller(cfg)
    # one run per (point, backend), its parties built before the first loop
    # runs; a point and a config that name no backend run every backend
    runs = []
    for point in parse_sweep(sweep_spec):
        merged = {**data, **point}
        runs += [from_dict(RunConfig, {**merged, "backend": backend}, f"sweep point {point}")
                 for backend in ([merged["backend"]] if "backend" in merged else BACKENDS)]
    for run in runs:
        make_parties(controller, run.backend, run)
    lines = [",".join(BENCH_COLUMNS)]
    for run in runs:
        traj = run_closed_loop(scenario, run, controller=controller)
        lines.append(_bench_row(run, traj, controller))
        print(f"timing {run.backend} (L={run.key_bits}): per-cycle median "
              f"sensor {_median_wall(traj, 'sensor'):.3e}s "
              f"cloud {_median_wall(traj, 'cloud'):.3e}s "
              f"actuator {_median_wall(traj, 'actuator'):.3e}s "
              f"total {_median_wall(traj, 'total'):.3e}s"
              + (f" [fault at {traj.fault_k}: {traj.fault}]"
                 if traj.fault else ""))
    out = Path(cfg.out_dir) / "bench.csv"
    _write_text(out, "\r\n".join(lines) + "\r\n")
    print(f"{len(lines) - 1} rows -> {out} "
          f"(wall times on stdout only: CSVs stay byte-reproducible)")
    return 0


def cmd_attack(cfg):
    scenario = resolve_scenario(cfg, attack_scenario)
    check_episode(scenario, cfg)  # before the synthesis it would waste
    controller = scenario.synthesize_controller()
    observations = gather_observations(scenario, controller, cfg,
                                       ATTACK_BACKENDS)
    settings = default_settings(trials=cfg.attack_trials)
    table = run_attack_table(observations, settings, cfg.seed_attack)
    out = Path(cfg.out_dir) / "attack.csv"
    _write_text(out, attack_table_csv(table, ATTACK_BACKENDS))
    width = max(len(b) for b in ATTACK_BACKENDS)
    print(f"scenario {scenario.name}, {cfg.attack_trials} trials per cell")
    header = "noise     " + " ".join(f"{b:>{width}}" for b in ATTACK_BACKENDS)
    print(header)
    for kind in NOISE_KINDS:
        cells = []
        for backend in ATTACK_BACKENDS:
            val = table[(kind, backend)]
            cells.append(f"{'undefined' if math.isnan(val) else f'{val:.3e}':>{width}}")
        print(f"{kind:9s} " + " ".join(cells))
    print(f"-> {out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="encmpc",
        description="Explicit MPC synthesis and encrypted evaluation workbench")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON run configuration")
    common.add_argument("--seed-keys", type=int, metavar="N",
                        help="key material seed")
    common.add_argument("--seed-quant", type=int, metavar="N",
                        help="stochastic quantizer seed")
    common.add_argument("--seed-attack", type=int, metavar="N",
                        help="adversary noise seed")
    common.add_argument("--backend", metavar="NAME",
                        help="one of " + ", ".join(BACKENDS))
    common.add_argument("--out", dest="out_dir", metavar="DIR",
                        help="output directory")
    common.add_argument("--epsilon-q", type=float, metavar="FLOAT",
                        help="accuracy target; derives delta and w")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("synthesize", parents=[common],
                   help="explore critical regions, write controller.json")
    sub.add_parser("run", parents=[common],
                   help="closed-loop run, write trajectory CSV")
    bench = sub.add_parser("bench", parents=[common],
                           help="payload/count/cost table over a parameter sweep")
    bench.add_argument("--sweep", metavar="SPEC", default="",
                       help="bench grid, e.g. 'key_bits=1024,2048;w=8,12'")
    sub.add_parser("attack", parents=[common],
                   help="least-squares eavesdropping table")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")
    try:
        cfg, data = build_config(args)
        try:
            Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"output directory {cfg.out_dir} cannot be made: "
                              f"{exc}") from exc
        if args.command == "synthesize":
            return cmd_synthesize(cfg)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "bench":
            return cmd_bench(cfg, data, args.sweep)
        if args.command == "attack":
            return cmd_attack(cfg)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime fault, not a config problem
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
