"""Per-operation correctness gate, technique check and provenance.

An operation fails -- it is counted in ``failed``, never timed as a
slow success -- when its process exits non-zero, when its output file
does not reload with ``load_design``, when any position is non-finite,
or when ``check_legal`` reports issues.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import platform
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np


@dataclass
class OpCheck:
    """Verdict on one operation's output file."""

    ok: bool
    reasons: list = field(default_factory=list)
    sha256: str = ""
    netlist: object = None


def file_sha256(path: str) -> str:
    """Hex SHA-256 of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_output(path: str, exit_code: int) -> OpCheck:
    """Gate one operation on its exit code and its placed output."""
    from repro.io import load_design
    from repro.legalize import check_legal

    if exit_code != 0:
        return OpCheck(False, [f"exit code {exit_code}"])
    if not os.path.exists(path):
        return OpCheck(False, [f"no output file {path}"])
    digest = file_sha256(path)
    try:
        netlist = load_design(path)
    except Exception as exc:  # noqa: BLE001 -- any reload error fails the op
        # (a truncated ``die`` line raises TypeError, not a parse error)
        return OpCheck(
            False, [f"output does not reload: {type(exc).__name__}: {exc}"], digest
        )
    reasons = []
    if not (np.isfinite(netlist.x).all() and np.isfinite(netlist.y).all()):
        reasons.append("non-finite positions")
    else:
        issues = check_legal(netlist)
        if issues:
            reasons.append(f"{len(issues)} legality issues, first: {issues[0]}")
    return OpCheck(not reasons, reasons, digest, netlist)


def technique_check(counts: dict, min_rounds: int = 3) -> list:
    """Reasons the paper's techniques did not really run (empty = ran).

    ``counts`` needs ``core.rd_rounds``; the call and bin counts are
    checked when present (the traced run records them).
    """
    reasons = []
    if counts.get("core.rd_rounds", 0) < min_rounds:
        reasons.append(
            f"RD loop ran {counts.get('core.rd_rounds', 0)} rounds (< {min_rounds})"
        )
    for key in ("core.netmove_calls", "core.multipin_calls", "core.dpa_bins"):
        if key in counts and counts[key] == 0:
            reasons.append(f"{key} is zero")
    return reasons


def provenance(root: str, seed: int) -> dict:
    """Where and on what these numbers were measured."""
    import numpy
    import scipy

    from repro import kernels

    commit = "unknown"  # a benchmark checkout need not be a git repository
    if os.path.exists(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "kernel_backend": kernels.get_backend().name,
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "seed": seed,
        "commit": commit,
        "executable": sys.executable,
    }
