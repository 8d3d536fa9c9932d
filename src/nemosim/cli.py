"""Command-line entry points: single runs and speed sweeps."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from contextlib import ExitStack

from .engine import TraceWriter
from .experiment import run_scenario, sweep
from .metrics import CSV_HEADER
from .scenario import (MODE_PREDICTIVE, MODE_REACTIVE, PROTOCOLS, ConfigError, ScenarioConfig,
                       load_config)


def _base_config(args) -> ScenarioConfig:
    try:
        config = load_config(args.config) if args.config is not None else ScenarioConfig()
    except OSError as exc:
        raise ConfigError(f"argument --config: cannot read {args.config!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"argument --config: {args.config!r} is not UTF-8: {exc.reason}") from None
    overrides = {"protocol": args.protocol, "mode": getattr(args, "mode", None),
                 "dmr_speed_kmh": getattr(args, "speed", None), "seed": args.seed}
    for key, value in overrides.items():
        if value is not None:
            setattr(config, key, value)
    config.validate()
    return config


def _open_outputs(stack: ExitStack, args, flags: tuple[str, ...]) -> dict:
    """Open each output file given among `flags`, before any run, so that a
    path that cannot be written fails at once, not after the runs."""
    files = {}
    for flag in flags:
        path = getattr(args, flag)
        if path is not None:
            try:
                files[flag] = stack.enter_context(open(path, "w", encoding="utf-8"))
            except OSError as exc:
                raise ConfigError(f"argument --{flag}: cannot write {path!r}: {exc.strerror}") from None
    return files


def _path(value: str) -> str:
    """An output or input path given on the command line: never empty."""
    if not value:
        raise argparse.ArgumentTypeError("expected a file path, got an empty string")
    return value


def _speeds(value: str) -> list[float]:
    """The sweep's comma-separated speeds."""
    try:
        return [float(s) for s in value.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated km/h values, got {value!r}") from None


def cmd_run(args) -> int:
    config = _base_config(args)
    with ExitStack() as stack:
        files = _open_outputs(stack, args, ("out", "trace", "paths"))
        # The trace streams to its file during the run, so a run that raises
        # still leaves its trace on disk up to the event that failed.
        trace = TraceWriter(files["trace"]) if "trace" in files else None
        report, _ = run_scenario(config, trace=trace)
        files.get("out", sys.stdout).write(CSV_HEADER + "\n" + report.csv_row() + "\n")
        if "paths" in files:
            for (seq, _, _), path in zip(report.per_packet_delay, report.per_packet_path):
                files["paths"].write(f"{seq}\t{'>'.join(path)}\n")
    return 0


def cmd_sweep(args) -> int:
    config = _base_config(args)
    protocols = (args.protocol,) if args.protocol else PROTOCOLS
    # Every (scheme, speed) point is checked with the sweep's own config before
    # any runs: each scheme at the config's speed, then each speed.
    for protocol in protocols:
        dataclasses.replace(config, protocol=protocol).validate()
        for speed in args.speeds:
            try:
                dataclasses.replace(config, protocol=protocol, dmr_speed_kmh=speed).validate()
            except ConfigError as exc:
                raise ConfigError(f"argument --speeds: {speed:g} km/h: {exc}") from None
    with ExitStack() as stack:
        out = _open_outputs(stack, args, ("out",)).get("out", sys.stdout)
        out.write(sweep(config, args.speeds, protocols=protocols)[0])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nemosim",
        description="Packet-level simulator of network-mobility handovers with QoS")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and print a CSV row")
    run_p.add_argument("--config", type=_path, help="JSON scenario file")
    run_p.add_argument("--protocol", choices=PROTOCOLS)
    run_p.add_argument("--mode", choices=[MODE_PREDICTIVE, MODE_REACTIVE])
    run_p.add_argument("--speed", type=float, help="mobile router speed in km/h")
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--out", type=_path, help="CSV output path (stdout when omitted)")
    run_p.add_argument("--trace", type=_path, help="write the per-event TSV trace here")
    run_p.add_argument("--paths", type=_path, help="write per-packet node paths here")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="sweep speeds across protocols")
    sweep_p.add_argument("--config", type=_path, help="JSON scenario file")
    sweep_p.add_argument("--speeds", type=_speeds, default="15,30,45,60,75,90",
                         help="comma-separated km/h values")
    sweep_p.add_argument("--protocol", choices=PROTOCOLS,
                         help="restrict to one protocol (default: all)")
    sweep_p.add_argument("--seed", type=int)
    sweep_p.add_argument("--out", type=_path, help="CSV output path (stdout when omitted)")
    sweep_p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, json.JSONDecodeError) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
