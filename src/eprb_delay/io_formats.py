"""CSV/JSON readers and writers for trajectories, time tags, and spectra.

Floats are written with ``repr`` (shortest round-trip form, '.' decimal
separator), so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Any

import numpy as np

from .dde import RhoDTrajectory
from .errors import ConfigError, InsufficientDataError
from .experiment import TimeTagData
from .spectral import Spectrum


def _fmt(x: float) -> str:
    return repr(float(x))


def write_trajectory_csv(path: Path, traj: RhoDTrajectory, extras: bool = False) -> None:
    """Columns t, rho_d, rho_target; with ``extras`` also rho_no_target and
    the clamped sampling track."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        if extras:
            w.writerow(["t", "rho_d", "rho_target", "rho_no_target", "rho_d_clamped"])
            clamped = np.clip(traj.rho_d, 0.25, 0.5)
            for t, rd, rt, rn, rc in zip(
                traj.t, traj.rho_d, traj.rho_target, traj.rho_no_target, clamped
            ):
                w.writerow([_fmt(t), _fmt(rd), _fmt(rt), _fmt(rn), _fmt(rc)])
        else:
            w.writerow(["t", "rho_d", "rho_target"])
            for t, rd, rt in zip(traj.t, traj.rho_d, traj.rho_target):
                w.writerow([_fmt(t), _fmt(rd), _fmt(rt)])


def read_trajectory_csv(path: Path) -> RhoDTrajectory:
    path = Path(path)
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise InsufficientDataError(f"empty trajectory file {path}")
    t = np.array([float(r["t"]) for r in rows])
    rho_d = np.array([float(r["rho_d"]) for r in rows])
    rho_target = np.array([float(r["rho_target"]) for r in rows])
    dt = float(t[1] - t[0]) if len(t) > 1 else 1.0
    return RhoDTrajectory(t0=float(t[0]), dt=dt, rho_d=rho_d, rho_target=rho_target)


TAG_HEADER = ["t_seconds", "arm", "port", "setting_index"]


def write_tags_csv(path: Path, tags: TimeTagData, meta: dict[str, Any] | None = None) -> None:
    """Time-tag stream plus a sidecar ``<name>.meta.json`` with the resolved
    configuration and the setting-index conventions."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TAG_HEADER)
        for i in range(len(tags)):
            w.writerow(
                [_fmt(tags.t[i]), str(tags.arm[i]), str(tags.port[i]), int(tags.setting_index[i])]
            )
    sidecar = {
        "format": {
            "columns": TAG_HEADER,
            "arm_values": ["a", "b"],
            "port_values": ["+", "-"],
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
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TAG_HEADER:
            raise ConfigError(f"unexpected tag header in {path}: {header}")
        t, arm, port, idx = [], [], [], []
        for r in reader:
            t.append(float(r[0]))
            arm.append(r[1])
            port.append(r[2])
            idx.append(int(r[3]))
    if not t:
        raise InsufficientDataError(f"no time tags in {path}")
    return TimeTagData(t=np.array(t), arm=np.array(arm), port=np.array(port),
                       setting_index=np.array(idx))


def write_spectrum_csv(path: Path, spectrum: Spectrum, tau_seconds: float = 1.0) -> None:
    """Columns frequency_per_tau, frequency_hz, power; the spectrum's own
    axis is in Hz, which is per tau when tau_seconds is 1."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["frequency_per_tau", "frequency_hz", "power"])
        for f, p in zip(spectrum.frequencies, spectrum.power):
            w.writerow([_fmt(f * tau_seconds), _fmt(f), _fmt(p)])


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
    return obj
