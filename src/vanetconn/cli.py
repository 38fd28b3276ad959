"""Command-line front end: closed-form evaluation and ensemble sweeps, as CSV.

dB and dBm exist only here; everything behind this boundary runs linear.
Defaults reproduce the library's reference operating points (33 dBm transmit
power, 0.01 mW noise, beta 10, path-loss exponent 2, a 10 km segment,
thresholds of 5 and 15 dB, 10^3 trials).
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from contextlib import nullcontext

from . import analytic, channel, montecarlo
from .scenario import ScenarioParams

ANALYTIC_HEADER = ["model", "rho", "psi_db", "m_or_M", "metric", "value"]
SIMULATE_HEADER = [
    "model",
    "rho",
    "psi_db",
    "n_vehicles",
    "trials",
    "metric",
    "estimate",
    "ci_lo",
    "ci_hi",
    "seed",
    "decider_mismatches",
    "error",
]

# the flags that set the grid, with the grid they give when none is set
_GRID_FLAGS = {"rho": "--rho", "psi_db": "--psi-db", "model": "--model"}
_DEFAULT_GRID = {"rho": [0.019], "psi_db": [5.0, 15.0], "model": "both"}
# ScenarioParams names the field it rejects; report the flag that set it
_FLAG_OF_FIELD = {
    "rho": "--rho",
    "psi": "--psi-db",
    "road_length": "--length-m",
    "tx_power": "--tx-dbm",
    "noise_power": "--noise-mw",
    "beta": "--beta",
    "ple": "--alpha",
}


# the most points a range or a grid may list; its count is checked before any is built
_MAX_RANGE_POINTS = 10**6


def _parse_value_spec(text: str) -> list[float]:
    """Parse '0.01', '0.01,0.02' or 'start:stop:step'.

    A range lists start + k*step for every k that stays at or below stop,
    within 1e-9 of a step for rounding; a point that overshoots stop by that
    rounding is clamped onto it.  Its start, stop and step must be finite,
    and it may list at most ``_MAX_RANGE_POINTS`` points.
    """
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError("range must be start:stop:step")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not all(map(math.isfinite, (start, stop, step))):
            raise argparse.ArgumentTypeError("range start, stop and step must be finite")
        if step <= 0 or stop < start:
            raise argparse.ArgumentTypeError("need step > 0 and stop >= start")
        # a span of finite bounds can still overflow to inf
        steps = (stop - start) / step + 1e-9
        if not steps < _MAX_RANGE_POINTS:
            raise argparse.ArgumentTypeError(f"range lists more than {_MAX_RANGE_POINTS} points")
        count = math.floor(steps) + 1
        return [min(start + k * step, stop) for k in range(count)]
    try:
        values = [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not values:
        raise argparse.ArgumentTypeError("empty value list")
    return values


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# the grid each preset runs; a preset excludes every grid flag
_PRESETS = {
    "density-sweep": {"rho": _parse_value_spec("0.002:0.03:0.004"), "psi_db": [5.0, 15.0],
                      "model": "both"},
}


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # the grid flags default to None, so that main can tell them from a preset
    common.add_argument("--rho", type=_parse_value_spec,
                        help="vehicle density [veh/m]: value, comma list, or start:stop:step")
    common.add_argument("--psi-db", type=_parse_value_spec,
                        help="SNR threshold [dB]: value, comma list, or start:stop:step")
    common.add_argument("--tx-dbm", type=float, default=33.0, help="transmit power [dBm]")
    common.add_argument("--noise-mw", type=float, default=0.01, help="noise power [mW]")
    common.add_argument("--beta", type=float, default=10.0,
                        help="reference path loss times antenna gain")
    common.add_argument("--alpha", type=int, default=2, help="path-loss exponent")
    common.add_argument("--length-m", type=float, default=10_000.0, help="road length [m]")
    common.add_argument("--big-m", type=_int_at_least(1), default=10,
                        help="one-side neighbour span for link/vehicle metrics")
    common.add_argument("--model", choices=["unit_disc", "rayleigh", "both"])
    common.add_argument("--out", default="-", help="output CSV path, '-' for stdout")

    parser = argparse.ArgumentParser(
        prog="vanetconn",
        description="1D vehicular network connectivity under unit-disc and "
                    "Rayleigh-fading channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("analytic", parents=[common],
                   help="closed-form metrics on a (rho, psi) grid")

    sim = sub.add_parser("simulate", parents=[common],
                         help="graph-ensemble estimates on a (rho, psi) grid")
    sim.add_argument("--trials", type=_int_at_least(1), default=1000, help="trials per grid point")
    sim.add_argument("--seed", type=_int_at_least(0), default=1, help="master seed")
    sim.add_argument("--decider", choices=list(montecarlo.DECIDERS), default="components",
                     help="connectivity decision: components (exact, default), eigen "
                          "(Laplacian spectrum) or both (exact, cross-checked by eigen)")
    sim.add_argument("--workers", type=_int_at_least(1), default=1, help="parallel trial workers")
    sim.add_argument("--preset", choices=list(_PRESETS), default=None,
                     help="density-sweep: densities 0.002..0.03, thresholds 5 and 15 dB, "
                          "both models; not allowed with --rho, --psi-db or --model")
    return parser


def _grid(args) -> list[tuple[float, float]]:
    return [(rho, psi_db) for rho in args.rho for psi_db in args.psi_db]


def _models(args) -> tuple[str, ...]:
    if args.model == "both":
        return montecarlo.MODELS
    return (args.model,)


def _linear(field: str, to_linear, value: float) -> float:
    # an overflow here happens before ScenarioParams sees the field, so name it
    try:
        return to_linear(value)
    except OverflowError:
        raise ValueError(f"{field} out of range: 10^({value!r}/10) overflows a float") from None


def _make_params(args, rho: float, psi_db: float) -> ScenarioParams:
    return ScenarioParams(
        rho=rho,
        road_length=args.length_m,
        tx_power=_linear("tx_power", channel.dbm_to_mw, args.tx_dbm),
        noise_power=args.noise_mw,
        beta=args.beta,
        ple=args.alpha,
        psi=_linear("psi", channel.db_to_linear, psi_db),
    )


def _analytic_rows(args, points):
    """One text block a point, its lines in ANALYTIC_HEADER order.

    Every point of a grid shares the path-loss exponent, the models and
    big_m, so it has the rows of the first point, with the same labels and
    "diverges" where they have it.  Their lines make one ``%`` template,
    which each point fills with its rho and psi and its values: ``'%.12g' % v``
    is the string ``format(v, '.12g')``.  A value that overflows a float
    names its point as well.
    """
    rows = analytic.grid_rows([params for _, _, params in points], args.big_m, _models(args))
    template = None
    for rho, psi_db, _ in points:
        try:
            point = next(rows)
        except OverflowError as exc:
            raise OverflowError(f"{exc} at rho={rho:.12g}, psi_db={psi_db:.12g}") from None
        if template is None:
            template = "".join([f"{model},%s,{'' if m is None else m},{metric},"
                                f"{'%s' if isinstance(value, str) else '%.12g'}\n"
                                for model, m, metric, value in point])
        # (where, value) for each line
        fields = [f"{rho:.12g},{psi_db:.12g}"] * (2 * len(point))
        fields[1::2] = [row[3] for row in point]
        yield template % tuple(fields)


def _simulate_rows(args, points):
    models = _models(args)
    rows = montecarlo.sweep(
        [params for _, _, params in points],
        models,
        args.trials,
        args.seed,
        big_m=args.big_m,
        decider=args.decider,
        workers=args.workers,
    )
    # sweep rows follow point order, then model order
    labels = [(rho, psi_db) for rho, psi_db, _ in points for _ in models]
    trials, seed = str(args.trials), str(args.seed)
    # lines in SIMULATE_HEADER order
    for (rho, psi_db), row in zip(labels, rows, strict=True):
        point = (row.model, _fmt(rho), _fmt(psi_db))
        if row.error is not None:
            yield _line(*point, "", trials, "error", "", "", "", seed, "", _csv_field(row.error))
            continue
        result = row.result
        n_vehicles = str(row.params.n_vehicles)
        mismatches = str(result.decider_mismatches()) if args.decider == "both" else ""

        def emit(metric, estimate, lo, hi):
            return _line(*point, n_vehicles, trials, metric, _fmt(estimate), _fmt(lo), _fmt(hi),
                         seed, mismatches, "")

        net = result.network_connectivity()
        yield emit("network_connectivity", net.estimate, net.ci_lo, net.ci_hi)
        one = result.vehicle_connectivity(side="one")
        yield emit("vehicle_connectivity_one_side", one.estimate, one.ci_lo, one.ci_hi)
        two = result.vehicle_connectivity(side="two")
        yield emit("vehicle_connectivity_two_side", two.estimate, two.ci_lo, two.ci_hi)
        deg = result.node_degree()
        yield emit("mean_node_degree", deg.mean, deg.ci_lo, deg.ci_hi)
        for m in range(1, result.linked_by_gap.shape[1] + 1):
            link = result.single_link(m)
            yield emit(f"single_link_m{m}", link.estimate, link.ci_lo, link.ci_hi)


def _line(*fields: str) -> str:
    """One CSV line of fields that need no quoting."""
    return ",".join(fields) + "\n"


def _csv_field(text: str) -> str:
    """Non-empty free text as ``csv.writer`` writes it, quoted where csv would quote it."""
    buffer = io.StringIO()
    # the file's own line terminator: csv quotes by it
    csv.writer(buffer, lineterminator="\n").writerow([text])
    return buffer.getvalue()[:-1]


def _write_csv(handle, header: list[str], lines) -> None:
    """The header, then each of ``lines`` as it comes: rows stream a point at a time."""
    handle.write(_line(*header))
    handle.writelines(lines)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    preset = getattr(args, "preset", None)
    grid = _PRESETS[preset] if preset else _DEFAULT_GRID
    for dest, flag in _GRID_FLAGS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, grid[dest])
        elif preset:
            parser.error(f"argument {flag}: not allowed with --preset {preset}")
    if len(args.rho) * len(args.psi_db) > _MAX_RANGE_POINTS:
        parser.error(f"the grid lists more than {_MAX_RANGE_POINTS} points")
    # every grid point is validated before any output is written
    try:
        points = [(rho, psi_db, _make_params(args, rho, psi_db)) for rho, psi_db in _grid(args)]
    except (ValueError, ArithmeticError) as exc:
        flag = _FLAG_OF_FIELD.get(str(exc).split(" ", 1)[0])
        parser.error(f"argument {flag}: {exc}" if flag else f"invalid scenario: {exc}")
    try:
        out = nullcontext(sys.stdout) if args.out == "-" else open(args.out, "w", newline="")
    except OSError as exc:
        parser.error(f"argument --out: {exc}")
    with out as handle:
        try:
            if args.command == "analytic":
                _write_csv(handle, ANALYTIC_HEADER, _analytic_rows(args, points))
            else:
                _write_csv(handle, SIMULATE_HEADER, _simulate_rows(args, points))
            handle.flush()
        except BrokenPipeError:
            # the reader went away (as under `| head`): send what is still
            # buffered to devnull, so the flush at exit cannot raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
        except (ValueError, ArithmeticError, RuntimeError, MemoryError) as exc:
            print(f"vanetconn: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
