"""Output checks for one op: invariants on every seed, reference at the default seed.

Invariants: every expected data file exists and is listed in the manifest
with a matching sha256, distributions sum to 1 within 1e-10, negativities
lie in [0, 1/2], series cover t = 0..steps, gamma > 0 with length 1/gamma.
At the default seed each data file is also compared with the reference
recorded under reference/, within the test suite's tolerances (1e-12 on
probabilities and spreads, 1e-10 on negativities and gamma), taken
relative to the value's size where that exceeds 1.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import json
import math
import os

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

NORM_TOL = 1e-10
NEGATIVITY_MAX = 0.5 + 1e-12
TOLERANCE = {
    "distribution": 1e-12,
    "sigma": 1e-12,
    "ipr": 1e-12,
    "negativity_coin_position": 1e-10,
    "negativity_particle_particle": 1e-10,
    "lyapunov": 1e-10,
}


def _stem(filename: str) -> str:
    base = filename.rsplit(".", 1)[0]
    for key in TOLERANCE:
        if base == key or base.startswith(key + "_"):
            return key
    raise ValueError(f"unexpected output file {filename}")


def _parse(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _invariants(op: dict, filename: str, header: list[str], rows: list[list[float]]) -> list[str]:
    key = _stem(filename)
    where = f"{op['name']}/{filename}"
    if any(not math.isfinite(v) for row in rows for v in row):
        return [f"{where}: non-finite value"]
    if key == "lyapunov":
        if header != ["gamma", "localization_length"] or len(rows) != 1:
            return [f"{where}: expected one gamma,localization_length row"]
        gamma, length = rows[0]
        if not gamma > 0 or abs(gamma * length - 1.0) > 1e-12:
            return [f"{where}: gamma {gamma!r} with length {length!r}"]
        return []
    if key == "distribution":
        p = [row[-1] for row in rows]
        total = math.fsum(p)
        problems = []
        if header[-1] != "p" or abs(total - 1.0) > NORM_TOL:
            problems.append(f"{where}: probabilities sum to {total!r}")
        if min(p) < 0.0:
            problems.append(f"{where}: negative probability")
        return problems
    if header[:2] != ["t", "value"] or [row[0] for row in rows] != list(range(op["steps"] + 1)):
        return [f"{where}: expected t = 0..{op['steps']} series"]
    values = [row[1] for row in rows]
    if key.startswith("negativity") and not all(0.0 <= v <= NEGATIVITY_MAX for v in values):
        return [f"{where}: negativity outside [0, 1/2]"]
    if key == "sigma" and min(values) < 0.0:
        return [f"{where}: negative spread"]
    if key == "ipr" and not all(0.0 < v <= 1.0 + 1e-12 for v in values):
        return [f"{where}: ipr outside (0, 1]"]
    if len(header) == 3 and min(row[2] for row in rows) < 0.0:
        return [f"{where}: negative stderr"]
    return []


def _against_reference(op: dict, filename: str, header, rows, ref_text: str) -> list[str]:
    ref_header, ref_rows = _parse(ref_text)
    where = f"{op['name']}/{filename}"
    if header != ref_header or len(rows) != len(ref_rows):
        return [f"{where}: shape differs from the reference"]
    tol = TOLERANCE[_stem(filename)]
    # the leading coordinate columns must match exactly
    exact = sum(1 for name in header if name in ("x", "y", "t"))
    worst = 0.0
    for row, ref in zip(rows, ref_rows):
        if row[:exact] != ref[:exact]:
            return [f"{where}: coordinates differ from the reference"]
        for v, r in zip(row[exact:], ref[exact:]):
            worst = max(worst, abs(v - r) / max(1.0, abs(r)))
    if worst > tol:
        return [f"{where}: differs from the reference by {worst:.3g} (tolerance {tol:g})"]
    return []


def load_reference(workload: str, seed: int):
    """Reference outcomes and files for (workload, seed), or None when not recorded."""
    path = os.path.join(REFERENCE_DIR, workload, "outcomes.json")
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        recorded = json.load(handle)
    if recorded["seed"] != seed:
        return None
    return recorded["outcomes"]


def _reference_text(workload: str, op_name: str, filename: str) -> str:
    with gzip.open(os.path.join(REFERENCE_DIR, workload, op_name, filename + ".gz"), "rt") as handle:
        return handle.read()


def check_op(workload: str, op: dict, directory: str, status: str, reference) -> list[str]:
    """Problems with one op's outputs; an empty list means the op passed.

    status is "ok", "nonconverged" (a Lyapunov chain that failed its own
    convergence test, which the program reports with exit code 1) or a
    description of any other failure.
    """
    ref_status = reference.get(op["name"]) if reference is not None else None
    if status == "nonconverged":
        if op["kind"] != "lyapunov":
            return [f"{op['name']}: NonConvergenceError outside a Lyapunov op"]
        if ref_status == "ok":
            return [f"{op['name']}: converged at the reference but not now"]
        return []
    if status != "ok":
        return [f"{op['name']}: {status}"]
    try:
        with open(os.path.join(directory, "manifest.json")) as handle:
            outputs = json.load(handle)["outputs"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{op['name']}: unreadable manifest.json ({exc})"]
    if sorted(outputs) != sorted(op["files"]):
        return [f"{op['name']}: manifest lists {sorted(outputs)}, expected {sorted(op['files'])}"]
    problems = []
    for filename in op["files"]:
        path = os.path.join(directory, filename)
        try:
            with open(path) as handle:
                header, rows = _parse(handle.read())
            if _sha256(path) != outputs[filename]:
                problems.append(f"{op['name']}/{filename}: sha256 does not match the manifest")
            problems += _invariants(op, filename, header, rows)
            # an op that failed at the reference commit gets the invariants only
            if ref_status == "ok":
                problems += _against_reference(op, filename, header, rows,
                                               _reference_text(workload, op["name"], filename))
        except (OSError, ValueError, IndexError) as exc:
            problems.append(f"{op['name']}/{filename}: missing or malformed ({exc})")
    return problems
