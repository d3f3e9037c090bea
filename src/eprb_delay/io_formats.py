"""npz/CSV/JSON readers and writers for trajectories, time tags, spectra and
gain sweeps.

Trajectories and time tags are written as ``np.savez`` archives, one array
per column; CSV is their export format and the input format of text that
time taggers write.  Readers pick the format from the file suffix and apply
the same boundary checks to both.  Every CSV artifact goes through
``_write_csv`` and ``_read_csv``.  Floats are written with ``repr`` (shortest
round-trip form, '.' decimal separator), so identical runs produce
byte-identical files that read back exactly.
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


def _check(path: Path, name: str, col: np.ndarray, allowed: tuple | None, where) -> None:
    """ConfigError at the first non-finite value of a float column
    (``allowed`` None) or the first value outside ``allowed``; ``where(k)``
    names the place of element k in the file."""
    bad, what = (~np.isfinite(col), "non-finite ") if allowed is None else (
        ~np.isin(col, allowed), "an invalid ")
    if bad.any():
        k = int(np.argmax(bad))
        raise ConfigError(f"{path} {where(k)} has {what}{name} {col[k].item()!r}")


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
                if spec is float or isinstance(spec, tuple):
                    _check(path, name, col, None if spec is float else spec,
                           lambda k: f"line {first + k}")
            blocks.append(block)
    if not blocks:
        raise InsufficientDataError(f"no data rows in {path}")
    return [np.concatenate(col) for col in zip(*blocks)]


def _write_npz(path: Path, arrays: dict[str, np.ndarray]) -> None:
    """An ``np.savez`` archive written to exactly ``path``; its zip members
    carry a fixed date, so identical arrays give identical bytes."""
    with Path(path).open("wb") as fh:
        np.savez(fh, **arrays)


def _open_npz(path: Path):
    """The npz archive at ``path``, for a ``with`` block; a file that is not
    one is a ConfigError."""
    import zipfile  # already imported by np.load; only its exception is needed

    try:
        archive = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile):
        raise ConfigError(f"{path} is not an npz archive") from None
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise ConfigError(f"{path} is not an npz archive: it holds a single array")
    return archive


def npz_arrays(path: Path) -> list[str]:
    """The names of the arrays of an npz archive, in the order written."""
    with _open_npz(path) as archive:
        return list(archive.files)


def _read_npz(path: Path, columns: dict[str, type | tuple]) -> list[np.ndarray]:
    """The named arrays of an npz archive, checked as ``_read_csv`` checks
    the columns of a CSV file.

    A column is float or the tuple of its allowed values; a tuple column is
    stored as integer codes, code k standing for the tuple's k-th value, and
    is returned decoded.  Every requested array must be present, readable
    without pickle, one-dimensional, of float or integer dtype as its column
    says, and as long as the others; a file that breaks any of these, or
    holds a non-finite float or a code outside the tuple, is a ConfigError
    naming the array.
    """
    import zipfile

    with _open_npz(path) as archive:
        missing = [c for c in columns if c not in archive.files]
        if missing:
            raise ConfigError(f"{path} has no array {missing[0]!r}; it holds {archive.files}")
        arrays = []
        for name in columns:
            try:
                arrays.append(archive[name])
            except (ValueError, OSError, zipfile.BadZipFile) as err:
                raise ConfigError(f"{path} array {name!r} cannot be read: {err}") from None
    first, n = next(iter(columns)), len(arrays[0])
    decoded = []
    for (name, spec), col in zip(columns.items(), arrays):
        kind, what = ("f", "floats") if spec is float else ("iu", "integer codes")
        if col.ndim != 1 or col.dtype.kind not in kind:
            raise ConfigError(f"{path} array {name!r} holds {col.dtype} of shape {col.shape}, "
                              f"not a column of {what}")
        if len(col) != n:
            raise ConfigError(f"{path} array {name!r} has {len(col)} elements, "
                              f"array {first!r} has {n}")
        allowed = None if spec is float else tuple(range(len(spec)))
        _check(path, name, col, allowed, lambda k: f"array {name!r} index {k}")
        decoded.append(col.astype(np.float64, copy=False) if allowed is None
                       else np.asarray(spec)[col])
    if not len(decoded[0]):
        raise InsufficientDataError(f"no data rows in {path}")
    return decoded


_TRAJECTORY_COLUMNS = {"t": float, "rho_d": float, "rho_target": float}
TRAJECTORY_EXTRAS = ("rho_no_target", "rho_d_clamped")

# largest relative departure of a time step from the first step that a
# trajectory file may show; grids this package writes depart by about 3e-11
_GRID_TOLERANCE = 1e-6


def _trajectory_columns(traj: RhoDTrajectory, extras: bool) -> dict[str, np.ndarray]:
    columns = {"t": traj.t, "rho_d": traj.rho_d, "rho_target": traj.rho_target}
    if extras:
        columns.update(zip(TRAJECTORY_EXTRAS,
                           (traj.rho_no_target, np.clip(traj.rho_d, 0.25, 0.5))))
    return columns


def write_trajectory_npz(path: Path, traj: RhoDTrajectory, extras: bool = False) -> None:
    """Arrays t, rho_d, rho_target; with ``extras`` also rho_no_target and
    the clamped sampling track rho_d_clamped."""
    _write_npz(path, _trajectory_columns(traj, extras))


def write_trajectory_csv(path: Path, traj: RhoDTrajectory, extras: bool = False) -> None:
    """The columns of ``write_trajectory_npz``, as CSV."""
    columns = _trajectory_columns(traj, extras)
    _write_csv(path, list(columns), list(columns.values()))


def _trajectory(path: Path, where, t, rho_d, rho_target) -> RhoDTrajectory:
    """The trajectory of columns read from ``path``.  Its times must be a
    strictly increasing uniform grid, since a trajectory keeps only its
    first time and step; ``where(k)`` names the place of sample k."""
    if len(t) < 2:
        raise InsufficientDataError(f"{path} holds one sample; a trajectory needs two")
    dt = float(t[1] - t[0])
    step = np.diff(t)
    bad = ~(step > 0) | (np.abs(step - dt) > _GRID_TOLERANCE * dt)
    if bad.any():
        k = int(np.argmax(bad)) + 1
        why = "t must increase" if not step[k - 1] > 0 else f"the grid step is {dt!r}"
        raise ConfigError(
            f"{path} {where(k)} has t {float(t[k])!r} after {float(t[k - 1])!r}: {why}"
        )
    return RhoDTrajectory(t0=float(t[0]), dt=dt, rho_d=rho_d, rho_target=rho_target)


def read_trajectory_npz(path: Path) -> RhoDTrajectory:
    return _trajectory(path, lambda k: f"array 't' index {k}",
                       *_read_npz(path, _TRAJECTORY_COLUMNS))


def read_trajectory_csv(path: Path) -> RhoDTrajectory:
    # the header is line 1, sample k is line k + 2
    return _trajectory(path, lambda k: f"line {k + 2}", *_read_csv(path, _TRAJECTORY_COLUMNS))


TAG_HEADER = ["t_seconds", "arm", "port", "setting_index"]
ARM_VALUES = ("a", "b")
PORT_VALUES = ("+", "-")
_TAG_COLUMNS = dict(zip(TAG_HEADER, (float, ARM_VALUES, PORT_VALUES, (0, 1))))


def _sidecar(path: Path) -> Path:
    return Path(path).with_suffix(Path(path).suffix + ".meta.json")


def _write_tags_sidecar(path: Path, file_format: dict, meta: dict[str, Any] | None) -> None:
    """``<name>.meta.json``: the tag file's format block, with the
    setting-index conventions, plus ``meta``."""
    sidecar = {
        "format": {
            **file_format,
            "setting_index": {
                "a": "analyzer angle index: 0 -> 0 rad, 1 -> pi/4",
                "b": "analyzer angle index: 0 -> pi/8, 1 -> 3*pi/8",
            },
        }
    }
    if meta:
        sidecar.update(meta)
    write_json(_sidecar(path), sidecar)


def write_tags_npz(path: Path, tags: TimeTagData, meta: dict[str, Any] | None = None) -> None:
    """Time-tag stream as an npz archive: t_seconds as float64, and arm,
    port and setting_index as int8 codes, code k standing for the k-th
    allowed value (arm a, b; port +, -; setting_index 0, 1).  The sidecar
    ``<name>.meta.json`` lists the codes and holds ``meta``."""
    columns = (tags.t, tags.arm, tags.port, tags.setting_index)
    # every coded column takes two values, so its code is "is the second"
    _write_npz(path, {
        name: np.asarray(col, np.float64) if spec is float
        else (np.asarray(col) == spec[1]).astype(np.int8)
        for (name, spec), col in zip(_TAG_COLUMNS.items(), columns)
    })
    codes = {name: {str(k): v for k, v in enumerate(spec)}
             for name, spec in _TAG_COLUMNS.items() if spec is not float}
    dtypes = {name: "float64" if spec is float else "int8" for name, spec in _TAG_COLUMNS.items()}
    _write_tags_sidecar(path, {"arrays": TAG_HEADER, "dtypes": dtypes, "codes": codes}, meta)


def write_tags_csv(path: Path, tags: TimeTagData, meta: dict[str, Any] | None = None) -> None:
    """Time-tag stream plus a sidecar ``<name>.meta.json`` with ``meta`` and
    the setting-index conventions."""
    _write_csv(path, TAG_HEADER, [tags.t, tags.arm, tags.port, tags.setting_index])
    _write_tags_sidecar(
        path, {"columns": TAG_HEADER, "arm_values": ARM_VALUES, "port_values": PORT_VALUES}, meta
    )


def read_tags_npz(path: Path) -> TimeTagData:
    t, arm, port, idx = _read_npz(path, _TAG_COLUMNS)
    return TimeTagData(t=t, arm=arm, port=port, setting_index=idx)


def read_tags_csv(path: Path) -> TimeTagData:
    t, arm, port, idx = _read_csv(path, _TAG_COLUMNS)
    return TimeTagData(t=t, arm=arm, port=port, setting_index=idx)


def read_meta(path: Path) -> dict[str, Any]:
    """The keys of a tag file's sidecar other than its format block, or {}
    when it has no sidecar."""
    sidecar = _sidecar(path)
    if not sidecar.is_file():
        return {}
    try:
        data = json.loads(sidecar.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"{sidecar} is not valid JSON: {err}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{sidecar} does not hold a JSON object")
    return {k: v for k, v in data.items() if k != "format"}


def _is_npz(path: Path) -> bool:
    return Path(path).suffix == ".npz"


def load_tags(path: Path) -> TimeTagData:
    """A time-tag file: an npz archive by its suffix, else CSV, the text a
    time tagger exports."""
    return read_tags_npz(path) if _is_npz(path) else read_tags_csv(path)


def load_series(path: Path) -> RhoDTrajectory | TimeTagData:
    """A file that ``spectrum`` takes as input: a time-tag stream when it
    holds t_seconds (an array of an npz archive, the first column of a
    CSV file), else a trajectory."""
    if _is_npz(path):
        if TAG_HEADER[0] in npz_arrays(path):
            return read_tags_npz(path)
        return read_trajectory_npz(path)
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
