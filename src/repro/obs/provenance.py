"""Run-provenance manifest: *what produced this output, exactly?*

Every telemetry-carrying run attaches a manifest answering the
reproducibility questions the paper's methodology cares about: which
code (git SHA + simulator :data:`~repro.sweep.keys.MODEL_VERSION`),
which calibrations (content digests, the same identity the store
shards by), which backend, and which *inputs* (an RNG-free
determinism hash over the canonical encoding of every sweep request).
Two runs with equal manifests modulo the ``host`` section must produce
bit-identical experiment outputs — that is the contract the digest
exists to check.

Everything here is best-effort and read-only: a missing ``git``
binary or a non-repo checkout degrades ``git_sha`` to ``"unknown"``,
never to an error.
"""

from __future__ import annotations

import hashlib
import platform
import subprocess
from pathlib import Path
from typing import Any, Sequence

__all__ = [
    "PROVENANCE_FORMAT",
    "git_revision",
    "calibration_digest",
    "requests_digest",
    "run_manifest",
]

PROVENANCE_FORMAT = "repro-provenance/1"


def git_revision(root: str | Path | None = None) -> str:
    """The checkout's commit SHA (plus ``-dirty``), or ``"unknown"``.

    One ``git status --porcelain=v2 --branch`` answers both questions:
    its ``# branch.oid`` header names the commit (``(initial)`` before
    the first one), and every line that is not a ``#`` header is a
    changed or untracked path.
    """
    if root is None:
        root = Path(__file__).resolve().parents[3]
    try:
        status = subprocess.run(
            ["git", "status", "--porcelain=v2", "--branch"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=5,
            check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha, dirty = "", False
    for line in status.splitlines():
        if line.startswith("# branch.oid "):
            sha = line[len("# branch.oid "):]
        elif not line.startswith("#"):
            dirty = True
    if not sha or sha == "(initial)":
        return "unknown"
    return f"{sha}-dirty" if dirty else sha


def calibration_digest(spec, cal) -> str:
    """Content identity of one (spec, calibration) pair.

    Exactly the store's scalar shard identity minus the matrix size,
    so the manifest names calibrations the same way shards do.
    """
    import dataclasses

    from repro.sweep.keys import canonical_json

    payload = {
        "spec": dataclasses.asdict(spec),
        "calibration": dataclasses.asdict(cal),
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def _pair_digests(requests: Sequence[Any]) -> dict[tuple[Any, Any], str]:
    """:func:`calibration_digest` of each distinct ``(spec,
    calibration)`` pair of ``requests``, each computed once."""
    digests: dict[tuple[Any, Any], str] = {}
    for request in requests:
        pair = (request.spec, request.calibration)
        if pair not in digests:
            digests[pair] = calibration_digest(*pair)
    return digests


def requests_digest(
    requests: Sequence[Any],
    *,
    pair_digests: dict[tuple[Any, Any], str] | None = None,
) -> str:
    """RNG-free determinism hash of a session's sweep requests.

    Canonical JSON over each request's full identity — device spec,
    calibration constants, N, and the enumerated configuration list —
    in registration order.  Any change that could change a computed
    number changes the digest; reordering requests changes it too
    (output order is part of what a session produces).
    ``pair_digests`` are the requests' calibration digests when the
    caller has them already (:func:`run_manifest`).
    """
    from repro.sweep.keys import canonical_json

    if pair_digests is None:
        pair_digests = _pair_digests(requests)
    entries = []
    for request in requests:
        entries.append(
            {
                "identity": pair_digests[request.spec, request.calibration],
                "device": request.spec.name,
                "n": int(request.n),
                "configs": [
                    [c.bs, c.g, c.r] for c in request.configs()
                ],
            }
        )
    return hashlib.sha256(canonical_json(entries).encode()).hexdigest()


def run_manifest(
    command: str,
    *,
    backend: str | None = None,
    requests: Sequence[Any] | None = None,
    extra: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Build the provenance manifest of one CLI run.

    ``requests`` (when the command's input is a sweep-request set)
    feeds the determinism hash; ``extra`` lets callers attach
    command-specific identity (e.g. the device/N of a single sweep).
    """
    from repro.sweep.keys import MODEL_VERSION

    manifest: dict[str, Any] = {
        "format": PROVENANCE_FORMAT,
        "command": command,
        "git_sha": git_revision(),
        "model_version": MODEL_VERSION,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
    }
    if backend is not None:
        manifest["backend"] = backend
    if requests is not None:
        pair_digests = _pair_digests(requests)
        manifest["inputs_digest"] = requests_digest(
            requests, pair_digests=pair_digests
        )
        manifest["requests"] = len(requests)
        calibrations: dict[str, str] = {}
        for (spec, _), digest in pair_digests.items():
            calibrations.setdefault(spec.name, digest)
        manifest["calibrations"] = dict(sorted(calibrations.items()))
    if extra:
        manifest.update(extra)
    return manifest
