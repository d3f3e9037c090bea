"""CSV/JSON readers and writers for trajectories, time tags, spectra and
gain sweeps.

Every CSV artifact goes through ``_write_csv`` and ``_read_csv``.  Floats are
written with ``repr`` (shortest round-trip form, '.' decimal separator), so
identical runs produce byte-identical files that read back exactly.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import islice
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .dde import RhoDTrajectory, SweepRow
from .errors import ConfigError, InsufficientDataError
from .experiment import TimeTagData
from .spectral import Spectrum

# rows parsed per block: the reader never holds more rows of text than this
_BLOCK_ROWS = 65536


def _write_csv(path: Path, header: list[str], columns: Sequence) -> None:
    """A header row, then row i holding element i of every column."""
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(*(np.asarray(c).tolist() for c in columns)))


def _read_csv(path: Path, columns: dict[str, type | tuple]) -> list[np.ndarray]:
    """The named columns of a CSV file, as arrays.

    A column is given by its type, or by the tuple of the only values it may
    take.  The header must name every requested column, every row must have
    as many cells as the header, every float must be finite and every value
    of a tuple column one of the tuple's; a file that breaks any of these is
    a ConfigError naming the line.
    """
    kinds = [type(c[0]) if isinstance(c, tuple) else c for c in columns.values()]
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in columns if c not in header]
        if missing:
            raise ConfigError(f"{path} has no column {missing[0]!r} in its header {header}")
        index = [header.index(c) for c in columns]
        blocks = []
        while rows := list(islice(reader, _BLOCK_ROWS)):
            first = reader.line_num - len(rows) + 1  # the line of rows[0]
            if set(map(len, rows)) != {len(header)}:
                k = next(k for k, r in enumerate(rows) if len(r) != len(header))
                raise ConfigError(
                    f"{path} line {first + k} has {len(rows[k])} cells, header has {len(header)}"
                )
            try:
                block = [np.array([r[i] for r in rows], dtype=kind)
                         for i, kind in zip(index, kinds)]
            except ValueError as err:
                raise ConfigError(f"{path}: {err}") from None
            for (name, spec), col in zip(columns.items(), block):
                if spec is float:
                    bad, what = ~np.isfinite(col), "non-finite "
                elif isinstance(spec, tuple):
                    bad, what = ~np.isin(col, spec), "an invalid "
                else:
                    continue
                if bad.any():
                    k = int(np.argmax(bad))
                    raise ConfigError(
                        f"{path} line {first + k} has {what}{name} {col[k].item()!r}"
                    )
            blocks.append(block)
    if not blocks:
        raise InsufficientDataError(f"no data rows in {path}")
    return [np.concatenate(col) for col in zip(*blocks)]


def write_trajectory_csv(path: Path, traj: RhoDTrajectory, extras: bool = False) -> None:
    """Columns t, rho_d, rho_target; with ``extras`` also rho_no_target and
    the clamped sampling track."""
    header = ["t", "rho_d", "rho_target"]
    columns = [traj.t, traj.rho_d, traj.rho_target]
    if extras:
        header += ["rho_no_target", "rho_d_clamped"]
        columns += [traj.rho_no_target, np.clip(traj.rho_d, 0.25, 0.5)]
    _write_csv(path, header, columns)


def read_trajectory_csv(path: Path) -> RhoDTrajectory:
    t, rho_d, rho_target = _read_csv(path, {"t": float, "rho_d": float, "rho_target": float})
    dt = float(t[1] - t[0]) if len(t) > 1 else 1.0
    return RhoDTrajectory(t0=float(t[0]), dt=dt, rho_d=rho_d, rho_target=rho_target)


TAG_HEADER = ["t_seconds", "arm", "port", "setting_index"]
ARM_VALUES = ("a", "b")
PORT_VALUES = ("+", "-")


def write_tags_csv(path: Path, tags: TimeTagData, meta: dict[str, Any] | None = None) -> None:
    """Time-tag stream plus a sidecar ``<name>.meta.json`` with the resolved
    configuration and the setting-index conventions."""
    path = Path(path)
    _write_csv(path, TAG_HEADER, [tags.t, tags.arm, tags.port, tags.setting_index])
    sidecar = {
        "format": {
            "columns": TAG_HEADER,
            "arm_values": ARM_VALUES,
            "port_values": PORT_VALUES,
            "setting_index": {
                "a": "analyzer angle index: 0 -> 0 rad, 1 -> pi/4",
                "b": "analyzer angle index: 0 -> pi/8, 1 -> 3*pi/8",
            },
        }
    }
    if meta:
        sidecar.update(meta)
    write_json(path.with_suffix(path.suffix + ".meta.json"), sidecar)


def read_tags_csv(path: Path) -> TimeTagData:
    columns = (float, ARM_VALUES, PORT_VALUES, (0, 1))
    t, arm, port, idx = _read_csv(path, dict(zip(TAG_HEADER, columns)))
    return TimeTagData(t=t, arm=arm, port=port, setting_index=idx)


def read_series_csv(path: Path) -> RhoDTrajectory | TimeTagData:
    """A CSV artifact that ``spectrum`` takes as input: a time-tag stream
    when its first column is t_seconds, else a trajectory."""
    with Path(path).open(newline="") as fh:
        header = next(csv.reader(fh), [])
    return read_tags_csv(path) if header[:1] == TAG_HEADER[:1] else read_trajectory_csv(path)


def write_spectrum_csv(path: Path, spectrum: Spectrum, tau_seconds: float = 1.0) -> None:
    """Columns frequency_per_tau, frequency_hz, power; the spectrum's own
    axis is in Hz, which is per tau when tau_seconds is 1."""
    f = spectrum.frequencies
    _write_csv(path, ["frequency_per_tau", "frequency_hz", "power"],
               [f * tau_seconds, f, spectrum.power])


def write_sweep_csv(path: Path, rows: Sequence[SweepRow]) -> None:
    """Columns gamma, decay_time_tau, period_tau and diverged (0 or 1)."""
    _write_csv(path, ["gamma", "decay_time_tau", "period_tau", "diverged"],
               [[r.gamma for r in rows], [r.decay_time_tau for r in rows],
                [r.period_tau for r in rows], [int(r.diverged) for r in rows]])


def dumps(payload: dict[str, Any]) -> str:
    """Strict JSON text: NaN becomes null and infinities the strings
    "inf" / "-inf", so no bare NaN or Infinity is ever written."""
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True, allow_nan=False)


def write_json(path: Path, payload: dict[str, Any]) -> None:
    Path(path).write_text(dumps(payload) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return None
        return x if math.isfinite(x) else ("inf" if x > 0 else "-inf")
    if isinstance(obj, Path):
        return str(obj)
    return obj
