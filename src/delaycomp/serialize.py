"""Deterministic CSV and JSON writers for runs, snapshots, and reports.

Floats serialize through repr (shortest round-trip form), so identical
inputs produce bit-identical files.  CSV uses RFC-4180 quoting with CRLF
line ends; JSON is UTF-8 with sorted keys.
"""

from __future__ import annotations

import csv
import json
import sys

import numpy as np


def fmt(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL,
                            lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def versions():
    from . import __version__
    return {
        "delaycomp": __version__,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }


def trajectory_rows(result):
    n = result.states.shape[1]
    header = ["t"] + [f"x{i + 1}" for i in range(n)] + ["U", "dhat"]
    rows = []
    for k in range(result.times.shape[0]):
        dhat = result.schedule.evaluate(result.times[k])[0]
        rows.append([result.times[k]] + list(result.states[k])
                    + [result.controls[k], dhat])
    return header, rows


def snapshot_rows(snap):
    """Per-node table of every distributed field and kernel profile."""
    m = snap.num_intervals
    n = snap.phat.shape[1]
    header = ["x", "u", "uhat", "utilde", "what", "what_x", "what_xx",
              "what_xxx", "utilde_x", "u_x"]
    cols = [np.linspace(0.0, 1.0, m + 1), snap.u, snap.uhat, snap.utilde,
            snap.what, snap.what_x, snap.what_xx, snap.what_xxx,
            snap.utilde_x, snap.u_x]
    for i in range(n):
        header += [f"phat{i + 1}", f"phat_x{i + 1}"]
        cols += [snap.phat[:, i], snap.phat_x[:, i]]
    ks = snap.kernels
    if ks is not None:
        for name in ("p1", "p2", "p3", "p4", "q1", "q3", "q5",
                     "uhat_t", "uhat_xt"):
            header.append(name)
            cols.append(getattr(ks, name))
        for name in ("q2", "q4", "q6"):
            arr = getattr(ks, name)
            for i in range(n):
                header.append(f"{name}_{i + 1}")
                cols.append(arr[:, i])
        for i in range(n):
            header.append(f"phat_t{i + 1}")
            cols.append(ks.phat_t[:, i])
    rows = [[col[j] for col in cols] for j in range(m + 1)]
    return header, rows


def snapshot_meta(snap):
    meta = {
        "t": float(snap.t),
        "step": int(snap.step),
        "X": [float(v) for v in snap.X],
        "U": float(snap.U),
        "dhat": float(snap.dhat),
        "dhat_dot": float(snap.dhat_dot),
        "dhat_ddot": float(snap.dhat_ddot),
        "M": int(snap.num_intervals),
    }
    ks = snap.kernels
    if ks is not None:
        meta["f_mismatch"] = [float(v) for v in ks.f_mismatch]
        meta["f_du"] = [float(v) for v in ks.f_du]
        meta["f_dp"] = [[float(v) for v in row] for row in ks.f_dp]
        meta["q1_t"] = float(ks.q1_t)
        meta["q7"] = float(ks.q7)
    return meta

