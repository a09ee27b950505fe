"""Fig. 5: regenerate the CUDA matmul instrument source.

Fig. 5 excerpts the CUDA file the GPU study runs: eight group routines
``dgemmG1..dgemmG8`` and 32 dispatch kernels ``dgemm1..dgemm32``.  The
experiment emits the full (compilable-style) source and reports the
structural statistics the paper's description implies — so the
"figure" is reproduced as a verifiable artifact rather than prose.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.analysis.report import format_table
from repro.apps.cuda_source import full_source

__all__ = ["Fig5Result", "run"]


class Fig5Result(NamedTuple):
    source: str
    group_routines: int
    dispatch_kernels: int
    sync_calls: int
    lines: int

    def render(self) -> str:
        stats = format_table(
            ["quantity", "value"],
            [
                ("__device__ group routines (paper: dgemmG1..G8)",
                 str(self.group_routines)),
                ("__global__ dispatch kernels (paper: dgemm1..32)",
                 str(self.dispatch_kernels)),
                ("__syncthreads() sites", str(self.sync_calls)),
                ("source lines", str(self.lines)),
            ],
        )
        head = "\n".join(self.source.splitlines()[:40])
        return stats + "\n\nsource head:\n" + head


def run() -> Fig5Result:
    """Regenerate the instrument and collect its structural stats."""
    src = full_source()
    return Fig5Result(
        source=src,
        group_routines=len(re.findall(r"__device__ void dgemmG\d+\(", src)),
        dispatch_kernels=len(re.findall(r"__global__ void dgemm\d+\(", src)),
        sync_calls=src.count("__syncthreads();"),
        lines=len(src.splitlines()),
    )
