"""Command-line front end: scenario evaluation, sweeps, and figure data.

Subcommands: qfi, figure2, fidelity, coeffs, sweep.  Configuration comes from
a single JSON document (--config); physical quantities carry unit suffixes in
their field names.  The numeric tolerances are the constants of
policy.DEFAULT_POLICY; no config section or environment variable sets them.

A run takes three steps: main checks the options, loads the config and
builds the base scenario; the command builds its points (every scenario
through point_scenario) and reads the rest of its config; then it evaluates
the points.  So a configuration error shows before any point is evaluated,
except an unwritable --out, which shows when the records are written;
coeffs opens --out before it forms its first row and writes each row as it
forms it.

Exit codes: 0 success, 1 numeric failure (no information / no plateau /
conditioning), 2 configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import numbers
import sys

import numpy as np

from .bogoliubov import unsqueezed_state_map
from .cavity import (
    CavityScenario,
    acceleration_from_h,
    build_rows,
    free_phases,
    h_from_acceleration,
    static_matrices,
)
from .errors import ConditioningError, ConfigError, NoInformationError, NumericError
from .gaussian import initial_product_squeezed
from .metrology import (
    cramer_rao,
    fidelity_two_mode,
    h0_coefficients,
    qfi_analytic_h0,
    qfi_numeric,
)
from .policy import DEFAULT_POLICY

CSV_COLUMNS = (
    "tau_s",
    "r",
    "qfi",
    "delta_h",
    "delta_a_m_per_s2",
    "validity_margin",
    "tail_estimate",
)

# scenario config name -> CavityScenario field; an absent name takes the
# field's default (the reference parameter set)
SCENARIO_FIELDS = {
    "length_m": "length",
    "sound_speed_m_per_s": "sound_speed",
    "mode_k": "k",
    "mode_kprime": "kprime",
    "squeezing_r": "squeezing",
    "drive_omega_rad_per_s": "omega",
    "duration_s": "tau",
    "n_max": "n_max",
    "n_measurements": "n_measurements",
    "probe_acceleration_m_per_s2": "a_probe",
}


def _fmt(x) -> str:
    """Integers as they are, floats at full round-trip precision (17 significant digits)."""
    if isinstance(x, int):
        return str(x)
    return f"{float(x):.16e}"


_CONFIG_SECTIONS = {"scenario", "sweep", "fidelity"}


def load_config(path):
    if path is None:
        return {}
    try:
        # RFC 8259 fixes JSON's encoding as UTF-8
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and an integer longer than
        # int's digit limit; RecursionError, nesting deeper than the parser
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(cfg) - _CONFIG_SECTIONS
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    return cfg


def _section(mapping, name, allowed):
    """The object mapping[name] ({} when absent); anything else, or an unknown key, is refused."""
    section = mapping.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} section must be an object")
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {name} fields: {sorted(unknown)}")
    return section


def config_number(value, what, integer=False, minimum=None):
    """A JSON number from a config, as float (or int).

    Every configured number passes through here.  Booleans, strings, null
    and other types are refused, as are NaN and the infinities (which
    Python's json accepts), a non-integral value where an integer is
    required and a value below ``minimum``; each raises ConfigError naming
    ``what``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    if integer:
        if not (isinstance(value, numbers.Integral) or float(value).is_integer()):
            raise ConfigError(f"{what} must be an integer, got {value!r}")
        value = int(value)
    else:
        try:
            value = float(value)
        except OverflowError as exc:  # a JSON integer beyond the float range
            raise ConfigError(f"{what} is out of range") from exc
        if not math.isfinite(value):
            raise ConfigError(f"{what} must be finite, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{what} must be >= {minimum}, got {value!r}")
    return value


def point_scenario(scenario, **changes):
    """scenario with changes, by dataclasses.replace; a value that
    CavityScenario refuses is a ConfigError.  Every scenario a run
    evaluates is built here."""
    try:
        return dataclasses.replace(scenario, **changes)
    except ValueError as exc:
        raise ConfigError(f"invalid scenario: {exc}") from exc


def scenario_from_config(cfg, nmax_override=None):
    raw = dict(_section(cfg, "scenario", SCENARIO_FIELDS))
    if nmax_override is not None:
        raw["n_max"] = nmax_override
    fields = {f.name: f for f in dataclasses.fields(CavityScenario)}
    kwargs = {}
    for key, value in raw.items():
        field = fields[SCENARIO_FIELDS[key]]
        # only the fields that default to None may be null
        if value is not None or field.default is not None:
            value = config_number(value, f"scenario.{key}", integer=field.type in ("int", int))
        kwargs[field.name] = value
    return point_scenario(CavityScenario(), **kwargs)


# a point's duration and its two probes tau (1 - 16 eps) and tau (1 + 16 eps);
# both factors are exact in float64
_TAU_PROBES = np.array([1.0, 1.0 - 16 * np.finfo(float).eps, 1.0 + 16 * np.finfo(float).eps])


def evaluate_scenario(scenario: CavityScenario, want_numeric=False):
    """Full single-point evaluation: pair rows, QFI, bounds.

    Rows k and k' of the interaction-picture series are built alone
    (cavity.build_rows), at the point's tau and at the probes
    tau (1 -/+ 16 eps).  Their coefficients of e^{2 p r}
    (metrology.h0_coefficients) give the matrix-form H0 of all three at
    the point's squeezing in one call (qfi_analytic_h0), with no fitted
    inputs and no un-squeezed rows.  "tail_estimate" is the share of H0
    carried by the modes above n_max // 2 (nan when n_max // 2 does not
    cover the pair), from the same coefficients.  With want_numeric and
    H0 > 0, the fidelity-ladder QFI of the same point is added as
    "qfi_numeric"; its numeric failures propagate.  At H0 <= 0 no ladder
    runs: there is no information to cross-check.  The ladder steps the
    states of one bogoliubov.unsqueezed_state_map of the point's rows at
    tau, in the frame where the squeezed initial state is the vacuum.
    They sit near the vacuum, so their fidelities take the float64 path;
    with the pilot's growth test in qfi_numeric, none takes the mpmath
    path, and no lab-frame state is formed.  The bounds are cramer_rao's (inf at H0 <= 0), and
    "validity_margin" is H0 h^2 at the probe amplitude, nan without a
    probe.  Returns a plain dict of floats.

    Last, a point whose probes' H0 moves from its H0 by more than
    policy.tau_spread_max of |H0| raises ConditioningError naming tau, r
    and the spread: H0 is not determined by the float64 inputs.  On the
    round-trip lattice its e^{4r} coefficient is zero in exact arithmetic,
    and the rounding of tau leaves a residue that e^{4r} amplifies.  L and
    c_s enter the series only through c_s tau / L, so the tau probes cover
    their rounding too.  A probe's H0 that overflows float64 where the
    point's does not is an infinite spread.  Every other failure of the
    point comes first.
    """
    r, k, kprime = scenario.squeezing, scenario.k, scenario.kprime
    alpha1, beta1 = build_rows(scenario, (k, kprime), scenario.tau * _TAU_PROBES)
    # a cavity series has no second order
    h0 = qfi_analytic_h0(h0_coefficients(alpha1, beta1, k, kprime, None), r)
    qfi = h0.value
    out = {
        "tau_s": scenario.tau,
        "r": scenario.squeezing,
        "qfi": qfi,
        "tail_estimate": h0.truncation_change,
    }
    if want_numeric and qfi > 0.0:
        out["qfi_numeric"] = qfi_numeric(unsqueezed_state_map(alpha1[0], beta1[0], r, k, kprime), 0.0)
    out["delta_h"], out["delta_a_m_per_s2"] = cramer_rao(
        qfi, scenario.n_measurements, scenario.length, scenario.sound_speed
    )
    spread = max(abs(probe - qfi) for probe in h0.probes)
    if spread > DEFAULT_POLICY.tau_spread_max * abs(qfi):
        relative = spread / abs(qfi) if qfi else math.inf
        raise ConditioningError(
            f"H0 = {qfi:.6e} at tau = {scenario.tau!r} s, r = {r!r} is not determined "
            f"by its inputs: tau (1 +/- 16 eps) moves it by {relative:.3e} of itself, "
            f"above {DEFAULT_POLICY.tau_spread_max:g}"
        )
    h = math.nan if scenario.a_probe is None else h_from_acceleration(scenario.a_probe, scenario)
    out["validity_margin"] = qfi * h * h
    return out


# ---------------------------------------------------------------------------
# sweep machinery
# ---------------------------------------------------------------------------

# sweep axis -> (CavityScenario field, record column of its value, or None)
_SWEEP_AXES = {
    "tau": ("tau", None),
    "r": ("squeezing", None),
    "a": ("a_probe", "a_probe_m_per_s2"),
    "omega": ("omega", "omega_rad_per_s"),
}


def _sweep_axis(cfg):
    section = _section(cfg, "sweep", {"parameter", "start", "stop", "count", "spacing"})
    try:
        name = section["parameter"]
        start = config_number(section["start"], "sweep.start")
        stop = config_number(section["stop"], "sweep.stop")
        count = config_number(section["count"], "sweep.count", integer=True, minimum=2)
    except KeyError as exc:
        raise ConfigError(f"sweep section missing {exc}") from exc
    spacing = section.get("spacing", "linear")
    if not isinstance(name, str) or name not in _SWEEP_AXES:
        raise ConfigError(f"sweep parameter must be one of {tuple(_SWEEP_AXES)}")
    if not start < stop:
        raise ConfigError("sweep start must be < stop")
    if spacing not in ("linear", "log"):
        raise ConfigError("sweep spacing must be linear or log")
    if spacing == "log" and start <= 0:
        raise ConfigError("log spacing requires start > 0")
    try:
        values = (np.linspace if spacing == "linear" else np.geomspace)(start, stop, count)
    except (MemoryError, ValueError) as exc:  # numpy refuses the size before allocating
        raise ConfigError(f"sweep.count = {count} is more points than can be allocated") from exc
    return name, [float(v) for v in values]


def run_sweep(args, scenarios, axis):
    """Evaluates the points of a sweep along axis, then writes their records to
    --out: the CSV_COLUMNS of each point, and the axis's column if it has one.

    Each point is one evaluate_scenario call, looked up on this module at
    that point.  Points of one geometry (CavityScenario.geometry: all but an
    omega sweep's) share the duration-free part that cavity.build_rows holds."""
    field, column = _SWEEP_AXES[axis]
    header = CSV_COLUMNS if column is None else (*CSV_COLUMNS, column)
    rows = []
    for scenario in scenarios:
        point = evaluate_scenario(scenario)
        row = [point[c] for c in CSV_COLUMNS]
        if column is not None:
            row.append(getattr(scenario, field))
        rows.append(row)
    _write_records(args.out, args.format, header, [rows])


def snapped_tau_grid(scenario, start, stop, count):
    """Log-spaced grid snapped to multiples of the round-trip period 2L/c_s.

    All mode phases and the resonant drive return to their initial values at
    those instants, so the emitted curve tracks the floor of the co-resonant
    modulation band (the conservative side): on it the QFI grows as tau^2 and
    the error bound falls as 1/tau.  Off-lattice durations modulate the QFI
    by an O(1) factor at kilohertz scales; cmd_sweep exposes that regime.
    """
    period = 2.0 * scenario.length / scenario.sound_speed
    values = np.geomspace(start, stop, count)
    # distinct values in grid order; np.unique would import numpy.ma (1.4 MB)
    return list(dict.fromkeys((np.maximum(np.round(values / period), 1.0) * period).tolist()))


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _output(path):
    """A text stream to path (stdout when None); an OSError opening or
    writing it is a ConfigError."""
    try:
        with contextlib.nullcontext(sys.stdout) if path is None else open(path, "w") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc


def _record_json(record, depth):
    """A flat record as json.dumps(record, indent=2, sort_keys=True) writes it at nesting depth ``depth``.

    Every nan or infinite float is null: RFC 8259 JSON has no NaN or
    Infinity tokens, and strict parsers refuse them.  A record holds no
    nested values, so each of its items sits one level deeper than the
    record, and the indentation rides in the item separator: json.dumps
    then runs its C encoder, where indent would run the pure-Python one.
    """
    pad = "\n" + "  " * (depth + 1)
    strict = {
        key: None if isinstance(value, float) and not math.isfinite(value) else value
        for key, value in record.items()
    }
    text = json.dumps(strict, sort_keys=True, allow_nan=False, separators=("," + pad, ": "))
    return "{" + pad + text[1:-1] + pad[:-2] + "}"


def _write_records(path, fmt, header, chunks):
    """Records to path (stdout when None) as CSV, or as JSON {"records": [...]}.

    chunks yields lists of rows, each row the values of header in order.
    path is opened before the first chunk is drawn, and each chunk is
    written before the next is drawn, so one chunk is held at a time.  The
    JSON has the bytes of json.dumps of the whole document with indent=2
    and sort_keys=True.
    """
    with _output(path) as fh:
        if fmt != "json":
            fh.write(",".join(header) + "\n")
            for rows in chunks:
                fh.writelines(",".join(_fmt(v) for v in row) + "\n" for row in rows)
            return
        fh.write('{\n  "records": [')
        sep = "\n"
        for rows in chunks:
            if rows:
                records = (_record_json(dict(zip(header, row)), 2) for row in rows)
                fh.write(sep + "    " + ",\n    ".join(records))
                sep = ",\n"
        fh.write("]\n}\n" if sep == "\n" else "\n  ]\n}\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _write_record(args, header, record):
    """The one record of qfi or fidelity, to --out (if given) as CSV or JSON."""
    if args.out is None:
        return
    if args.format == "json":
        with _output(args.out) as fh:
            fh.write(_record_json(record, 0) + "\n")
    else:
        _write_records(args.out, "csv", header, [[[record[c] for c in header]]])


def cmd_qfi(args, cfg, scenario):
    point = evaluate_scenario(scenario, want_numeric=True)
    if point["qfi"] <= 0.0:
        raise NoInformationError("QFI is zero: no information about the drive amplitude")
    # the perturbative domain is H0 h^2 < threshold, strictly; a nan margin
    # (no probe) compares false and is in range
    threshold = DEFAULT_POLICY.validity_threshold
    point["qfi_valid"] = not point["validity_margin"] >= threshold
    point["max_valid_acceleration_m_per_s2"] = acceleration_from_h(
        math.sqrt(threshold / point["qfi"]), scenario
    )
    ladder = point["qfi_numeric"]
    point["cross_check_residual"] = (
        abs(point["qfi"] - ladder) / abs(ladder) if ladder else math.inf
    )
    print(f"QFI (analytic H0)   : {_fmt(point['qfi'])}")
    print(f"QFI (numeric ladder): {_fmt(point['qfi_numeric'])}")
    print(f"cross-check residual: {point['cross_check_residual']:.3e}")
    print(f"delta_h bound       : {_fmt(point['delta_h'])}")
    print(f"delta_a bound (m/s2): {_fmt(point['delta_a_m_per_s2'])}")
    print(f"truncation change   : {_fmt(point['tail_estimate'])}")
    print(
        "max valid accel     : "
        f"{_fmt(point['max_valid_acceleration_m_per_s2'])} m/s^2 "
        f"(perturbative validity H0*h^2 < {threshold:g})"
    )
    if scenario.a_probe is not None:
        flag = "OK" if point["qfi_valid"] else "OUT OF VALIDITY RANGE"
        print(
            f"probe a = {_fmt(scenario.a_probe)} m/s^2 -> margin "
            f"H0*h^2 = {_fmt(point['validity_margin'])} [{flag}]"
        )
    _write_record(args, CSV_COLUMNS, point)
    return 0


def cmd_sweep(args, cfg, scenario):
    if "sweep" not in cfg:
        raise ConfigError("sweep requires a sweep section in the config")
    axis, values = _sweep_axis(cfg)
    run_sweep(args, [point_scenario(scenario, **{_SWEEP_AXES[axis][0]: v}) for v in values], axis)
    return 0


FIGURE2_SQUEEZINGS = (8.0, 9.0, 10.0)
FIGURE2_TAU = (2.0, 200.0, 25)


def cmd_figure2(args, cfg, scenario):
    """Error-bound curves delta_a(tau) for r = 8, 9, 10 at the sum resonance.

    The default duration grid is snapped to multiples of the round-trip
    period 2 L / c_s (see snapped_tau_grid); an explicit "sweep" section over
    tau in the config replaces the grid verbatim.
    """
    if "sweep" in cfg:
        name, taus = _sweep_axis(cfg)
        if name != "tau":
            raise ConfigError("figure2 sweeps over tau only")
    else:
        taus = snapped_tau_grid(scenario, *FIGURE2_TAU)
    scenarios = [
        point_scenario(scenario, squeezing=r, tau=tau) for r in FIGURE2_SQUEEZINGS for tau in taus
    ]
    run_sweep(args, scenarios, "tau")
    return 0


def cmd_fidelity(args, cfg, scenario):
    section = _section(cfg, "fidelity", {"state_a", "state_b"})
    states = []
    for what in ("state_a", "state_b"):
        state = _section(section, what, {"squeezing_r_k", "squeezing_r_kprime", "amplitude_h"})
        r_k, r_kp = (
            config_number(state.get(key, scenario.squeezing), f"fidelity.{what}.{key}")
            for key in ("squeezing_r_k", "squeezing_r_kprime")
        )
        h = config_number(state.get("amplitude_h", 0.0), f"fidelity.{what}.amplitude_h", minimum=0.0)
        states.append((r_k, r_kp, h))
    # the lab-frame states of modes k, k': rows k and k' at r = 0, where
    # the un-squeezing is exactly 1, with each initial covariance on the
    # pair columns
    k, kprime = scenario.k, scenario.kprime
    alpha1, beta1 = build_rows(scenario, (k, kprime), scenario.tau)
    state_a, state_b = (
        unsqueezed_state_map(alpha1, beta1, 0.0, k, kprime, initial_product_squeezed(r_k, r_kp).cov)(h)
        for r_k, r_kp, h in states
    )
    fb = fidelity_two_mode(state_a, state_b)
    print(f"fidelity            : {_fmt(fb.fidelity)}")
    payload = dataclasses.asdict(fb)
    _write_record(args, list(payload), payload)
    return 0


def cmd_coeffs(args, cfg, scenario):
    """The lab-frame series, or with --static the static coefficients, a row at a time."""
    n_max = scenario.n_max
    phases = free_phases(scenario)
    header = ["m", "n", "alpha1_re", "alpha1_im", "beta1_re", "beta1_im", "g_m_re", "g_m_im"]

    def chunks():
        for m in range(n_max):
            if args.static:
                g = 1.0 + 0.0j
                alpha, beta = static_matrices(n_max, slice(m, m + 1))
            else:
                # the series is in the interaction picture; row m times
                # G_m is that row in the lab frame
                g = phases[m]
                alpha, beta = (g * row for row in build_rows(scenario, (m + 1,), scenario.tau))
            yield [
                [m + 1, j + 1, a.real, a.imag, b.real, b.imag, g.real, g.imag]
                for j, (a, b) in enumerate(zip(alpha[0].tolist(), beta[0].tolist()))
            ]

    _write_records(args.out, args.format, header, chunks())
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser():
    """The argument parser, built on the first call and reused after it.

    main() may run many times in one process, and building the seven
    parsers (with their gettext lookups) costs close to a millisecond, a
    large share of a warm qfi call.  Reuse is safe: parse_args returns a
    fresh Namespace each call, and its error path raises SystemExit without
    changing the parser.
    """
    parser = argparse.ArgumentParser(
        prog="cavqfi",
        description="Gaussian-state QFI bounds for a sinusoidally driven cavity accelerometer",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="path to JSON run configuration")
    common.add_argument("--out", default=None, help="output file (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), help="record format (default: csv)")
    common.add_argument("--nmax", type=int, default=None, help="override mode truncation")

    sub.add_parser("qfi", parents=[common], help="single-point QFI and bounds")
    sub.add_parser("figure2", parents=[common], help="delta_a(tau) curves for r = 8, 9, 10")
    sub.add_parser("fidelity", parents=[common], help="fidelity between two configured states")
    coeffs = sub.add_parser("coeffs", parents=[common], help="dump the Bogoliubov series")
    coeffs.add_argument("--static", action="store_true", help="dump static coefficients")
    sub.add_parser("sweep", parents=[common], help="sweep one parameter axis")
    return parser


_COMMANDS = {
    "qfi": cmd_qfi,
    "figure2": cmd_figure2,
    "fidelity": cmd_fidelity,
    "coeffs": cmd_coeffs,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # qfi and fidelity print text: --format formats only the record that --out writes
        if args.command in ("qfi", "fidelity") and args.format is not None and args.out is None:
            raise ConfigError(
                f"--format {args.format} needs --out: {args.command} writes its record only to a file"
            )
        cfg = load_config(args.config)
        return _COMMANDS[args.command](args, cfg, scenario_from_config(cfg, args.nmax))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
