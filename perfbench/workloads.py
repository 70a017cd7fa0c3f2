"""The benchmark's workloads: the CLI calls each one makes and how its rows are checked.

Every workload drives the public entry ``cavqfi.cli.main(argv)`` in process.
Work runs in rounds (a fixed group of calls); a run repeats rounds until
its time is up, so every run ends on a whole round.  The seed picks the
off-lattice durations and the call order; fixed points stay fixed.

Checks read only the README-fixed CSV columns ``tau_s``, ``r``, ``qfi`` and
``delta_a_m_per_s2`` and run outside the timed region.  A point is ``ok``
when its row passes, ``bad`` when its call exits nonzero or its row fails,
and ``xfail`` when it is the named known defect and exits with the numeric
failure code 1.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import random
import time
from pathlib import Path

# reference geometry of the README: L = 1 um, c_s = 1e-3 m/s, modes 1 and 2
REFERENCE_SCENARIO = {
    "length_m": 1e-6,
    "sound_speed_m_per_s": 1e-3,
    "mode_k": 1,
    "mode_kprime": 2,
    "n_measurements": 1e11,
}
ROUND_TRIP_S = 2.0 * REFERENCE_SCENARIO["length_m"] / REFERENCE_SCENARIO["sound_speed_m_per_s"]
REFERENCE_DELTA_A = 3.6162820e-14
NUMERIC_FAILURE = 1
# the README-fixed CSV columns the checks read
COLUMNS = {"tau_s", "r", "qfi", "delta_a_m_per_s2"}


@dataclasses.dataclass(frozen=True)
class Call:
    argv: tuple
    key: str                 # names the point set, for references and reports
    n_points: int
    out_path: Path | None = None   # CSV the call writes; None means stdout
    known_defect: bool = False


@dataclasses.dataclass
class Outcome:
    call: Call
    code: int
    seconds: float
    text: str


def execute(call: Call) -> Outcome:
    """Run one CLI call, timing only ``cli.main`` itself."""
    from cavqfi import cli

    if call.out_path is not None:
        call.out_path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(list(call.argv))
        seconds = time.perf_counter() - t0
    if code != 0:
        text = err.getvalue()
    elif call.out_path is not None:
        text = call.out_path.read_text() if call.out_path.exists() else ""
    else:
        text = out.getvalue()
    return Outcome(call, code, seconds, text)


def parse_rows(text):
    """CSV text -> list of {column: float}; [] unless it is a table with COLUMNS."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    if len(lines) < 2:
        return []
    header = lines[0].split(",")
    if not COLUMNS <= set(header):
        return []
    try:
        return [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]
    except ValueError:
        return []


def _rel(a, b):
    return abs(a - b) / abs(b) if b else math.inf


def _row_sane(row):
    """Positive finite qfi, and delta_a = c_s^2 / (L sqrt(N qfi)) to roundoff."""
    qfi, delta_a = row["qfi"], row["delta_a_m_per_s2"]
    if not (math.isfinite(qfi) and qfi > 0 and math.isfinite(delta_a) and delta_a > 0):
        return False
    scale = REFERENCE_SCENARIO["sound_speed_m_per_s"] ** 2 / REFERENCE_SCENARIO["length_m"]
    expected = scale / math.sqrt(REFERENCE_SCENARIO["n_measurements"] * qfi)
    return _rel(delta_a, expected) <= 1e-12


def _on_lattice(tau, rel=1e-9):
    x = tau / ROUND_TRIP_S
    return abs(x - round(x)) <= rel * x


def _write_config(path, scenario, sweep=None):
    cfg = {"scenario": {**REFERENCE_SCENARIO, **scenario}}
    if sweep is not None:
        cfg["sweep"] = sweep
    path.write_text(json.dumps(cfg))
    return path


class Workload:
    name = ""

    def __init__(self, seed, work_dir: Path):
        self.rng = random.Random(seed)

    def rounds(self):
        """Endless iterator of rounds, each a list of Calls."""
        raise NotImplementedError

    def check_rows(self, outcome, rows):
        """One bool per expected point of an exit-0 call."""
        raise NotImplementedError

    def verdicts(self, outcome):
        n = outcome.call.n_points
        if outcome.code != 0:
            known = outcome.call.known_defect and outcome.code == NUMERIC_FAILURE
            return ["xfail" if known else "bad"] * n
        return ["ok" if good else "bad" for good in self.check_rows(outcome, parse_rows(outcome.text))]


class Figure2(Workload):
    """The default ``cavqfi figure2`` grid: r = 8, 9, 10 x 25 lattice durations."""

    name = "figure2"
    SQUEEZINGS = (8.0, 9.0, 10.0)
    N_TAU = 25

    def rounds(self):
        call = Call(("figure2",), "figure2", len(self.SQUEEZINGS) * self.N_TAU)
        while True:
            yield [call]

    def check_rows(self, outcome, rows):
        """Acceptance criterion 8 on the emitted curves, row by row.

        A row fails if it is not sane, if its delta_a does not fall below the
        previous row's on its curve, or if r10 < r9 < r8 fails at its tau.
        Every row of a curve fails if the curve's log-log slope is outside
        -1 +- 5%.
        """
        import numpy as np

        n = outcome.call.n_points
        if len(rows) != n:
            return [False] * n
        curves = [rows[i * self.N_TAU : (i + 1) * self.N_TAU] for i in range(len(self.SQUEEZINGS))]
        taus = [row["tau_s"] for row in curves[0]]
        shape_ok = (
            all(row["r"] == r for r, curve in zip(self.SQUEEZINGS, curves) for row in curve)
            and all([row["tau_s"] for row in curve] == taus for curve in curves)
            and all(b > a for a, b in zip(taus, taus[1:]))
            and 2.0 - 1e-9 <= taus[0] and taus[-1] <= 200.0 + 1e-9
            and all(_on_lattice(t) for t in taus)
        )
        if not shape_ok:
            return [False] * n
        good = [[_row_sane(row) for row in curve] for curve in curves]
        delta_a = [[row["delta_a_m_per_s2"] for row in curve] for curve in curves]
        for c in range(len(curves)):
            for i in range(1, self.N_TAU):
                if not delta_a[c][i] < delta_a[c][i - 1]:
                    good[c][i] = False
        for i in range(self.N_TAU):
            # curves are in increasing r, so delta_a must fall along them
            if not all(delta_a[c + 1][i] < delta_a[c][i] for c in range(len(curves) - 1)):
                for c in range(len(curves)):
                    good[c][i] = False
        for c in range(len(curves)):
            if all(good[c]):
                slope = float(np.polyfit(np.log(taus), np.log(delta_a[c]), 1)[0])
                if abs(slope + 1.0) > 0.05:
                    good[c] = [False] * self.N_TAU
        return [g for curve in good for g in curve]


class QfiMix(Workload):
    """Interactive ``cavqfi qfi --config`` calls cycling over fixed points.

    Each round is one seeded shuffle of the six points.  The off-lattice
    r = 10 point is the known defect (ROADMAP item D2): it exits 1
    when this benchmark was written.
    """

    name = "qfi_mix"
    POINTS = {
        "reference": {"squeezing_r": 10.0, "duration_s": 30.0, "n_max": 50},
        "r8_tau2": {"squeezing_r": 8.0, "duration_s": 2.0, "n_max": 50},
        "r9_tau200": {"squeezing_r": 9.0, "duration_s": 200.0, "n_max": 50},
        "r5_tau10": {"squeezing_r": 5.0, "duration_s": 10.0, "n_max": 50},
        "reference_nmax200": {"squeezing_r": 10.0, "duration_s": 30.0, "n_max": 200},
        "offlattice_r10": {"squeezing_r": 10.0, "duration_s": 2.00013, "n_max": 50},
    }
    KNOWN_DEFECT = "offlattice_r10"

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.calls = []
        for key, scenario in self.POINTS.items():
            cfg = _write_config(work_dir / f"qfi_{key}.json", scenario)
            out = work_dir / f"qfi_{key}.csv"
            argv = ("qfi", "--config", str(cfg), "--out", str(out))
            self.calls.append(Call(argv, key, 1, out, key == self.KNOWN_DEFECT))
        self._ladder = {}

    def rounds(self):
        while True:
            order = list(self.calls)
            self.rng.shuffle(order)
            yield order

    def ladder_qfi(self, key):
        """Independent check value: the fidelity-ladder QFI on the reduced transform."""
        if key not in self._ladder:
            from cavqfi import (
                CavityScenario,
                build_scenario_series,
                initial_product_squeezed,
                qfi_numeric,
                transform_reduced,
            )
            from cavqfi.errors import NumericError

            p = self.POINTS[key]
            scenario = CavityScenario(
                length=REFERENCE_SCENARIO["length_m"],
                sound_speed=REFERENCE_SCENARIO["sound_speed_m_per_s"],
                k=REFERENCE_SCENARIO["mode_k"],
                kprime=REFERENCE_SCENARIO["mode_kprime"],
                squeezing=p["squeezing_r"],
                tau=p["duration_s"],
                n_max=p["n_max"],
                n_measurements=REFERENCE_SCENARIO["n_measurements"],
            )
            series = build_scenario_series(scenario)
            initial = initial_product_squeezed(scenario.squeezing, scenario.squeezing)
            try:
                self._ladder[key] = qfi_numeric(
                    lambda h: transform_reduced(initial, series, h, scenario.k, scenario.kprime), 0.0
                )
            except NumericError:
                self._ladder[key] = None
        return self._ladder[key]

    def check_rows(self, outcome, rows):
        key = outcome.call.key
        p = self.POINTS[key]
        if len(rows) != 1 or not _row_sane(rows[0]):
            return [False]
        row = rows[0]
        ladder = self.ladder_qfi(key)
        good = (
            row["tau_s"] == p["duration_s"]
            and row["r"] == p["squeezing_r"]
            and ladder is not None
            and _rel(row["qfi"], ladder) <= 1e-6
        )
        if key.startswith("reference"):
            good = good and _rel(row["delta_a_m_per_s2"], REFERENCE_DELTA_A) <= 1e-6
        return [good]


class WideTruncation(Workload):
    """``cavqfi sweep`` at r = 2 and n_max = 1000 over log-spaced off-lattice tau.

    The seed draws a pool of sweeps, each of three log-spaced durations with
    every one at least a tenth of a round trip away from the lattice; rounds
    cycle through the pool.  Each row must match the same point at n_max = 50.
    """

    name = "wide_truncation"
    N_MAX = 1000
    CHECK_N_MAX = 50
    SQUEEZING = 2.0
    POOL = 6
    COUNT = 3

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.calls = []
        self.grids = {}
        for i in range(self.POOL):
            sweep, grid = self._draw_sweep()
            key = f"sweep{i}"
            cfg = _write_config(
                work_dir / f"wide_{key}.json",
                {"squeezing_r": self.SQUEEZING, "n_max": self.N_MAX},
                sweep,
            )
            self.calls.append(Call(("sweep", "--config", str(cfg)), key, self.COUNT))
            self.grids[key] = grid
        self._reference = {}

    def _draw_sweep(self):
        import numpy as np

        while True:
            start = 10.0 ** self.rng.uniform(math.log10(1.5), math.log10(15.0))
            stop = 10.0 ** self.rng.uniform(math.log10(40.0), math.log10(150.0))
            grid = [float(t) for t in np.geomspace(start, stop, self.COUNT)]
            fracs = [(t / ROUND_TRIP_S) % 1.0 for t in grid]
            if all(0.1 < f < 0.9 for f in fracs):
                sweep = {"parameter": "tau", "start": start, "stop": stop, "count": self.COUNT, "spacing": "log"}
                return sweep, grid

    def rounds(self):
        while True:
            for call in self.calls:
                yield [call]

    def reference_rows(self, call):
        """Rows of the same sweep at n_max = 50, keyed by tau."""
        if call.key not in self._reference:
            ref = execute(Call(call.argv + ("--nmax", str(self.CHECK_N_MAX)), call.key, self.COUNT))
            rows = parse_rows(ref.text) if ref.code == 0 else []
            self._reference[call.key] = {row["tau_s"]: row for row in rows}
        return self._reference[call.key]

    def check_rows(self, outcome, rows):
        n = outcome.call.n_points
        grid = self.grids[outcome.call.key]
        if len(rows) != n:
            return [False] * n
        reference = self.reference_rows(outcome.call)
        flags = []
        for row, tau in zip(rows, grid):
            ref = reference.get(row["tau_s"])
            flags.append(
                _row_sane(row)
                and _rel(row["tau_s"], tau) <= 1e-12
                and row["r"] == self.SQUEEZING
                and ref is not None
                and _rel(row["qfi"], ref["qfi"]) <= 1e-8
                and _rel(row["delta_a_m_per_s2"], ref["delta_a_m_per_s2"]) <= 1e-8
            )
        return flags


WORKLOADS = {w.name: w for w in (Figure2, QfiMix, WideTruncation)}
