"""Workload models: the paper's applications.

* :mod:`repro.apps.matmul_gpu` — the (BS, G, R) blocked matmul the GPU
  weak-EP study sweeps (Section IV).
* :mod:`repro.apps.dgemm_cpu` — the threadgroup-parallel CPU DGEMM of
  the Fig. 4 utilization study (Section III).
* :mod:`repro.apps.fft2d` — the 2D-FFT workload of the strong-EP study
  (Fig. 1, from [12]).

Exports resolve lazily (PEP 562): ``from repro.apps import
MatmulGPUApp`` imports :mod:`repro.apps.matmul_gpu` and what it needs,
not the whole package, so a command loads only the submodules it uses.
"""

from __future__ import annotations

from repro import _lazy_exports

#: Exported name -> defining submodule.
_EXPORTS = {
    "DecompositionError": "decomposition",
    "GroupAssignment": "decomposition",
    "ThreadAssignment": "decomposition",
    "decompose": "decomposition",
    "verify_weak_ep_constraints": "decomposition",
    "dispatch_kernel": "cuda_source",
    "full_source": "cuda_source",
    "group_routine": "cuda_source",
    "product_code": "cuda_source",
    "DGEMMCPUApp": "dgemm_cpu",
    "FFT2DApp": "fft2d",
    "FFTDeviceProfile": "fft2d",
    "FFTRunResult": "fft2d",
    "fft_work": "fft2d",
    "radix_penalty": "fft2d",
    "MatmulConfig": "matmul_gpu",
    "MatmulGPUApp": "matmul_gpu",
    "divisors": "matmul_gpu",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
