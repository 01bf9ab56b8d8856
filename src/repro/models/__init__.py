"""DNN workload zoo and the analytic GPU performance model.

Real ParvaGPU profiles PyTorch models on physical A100 MIG instances.  This
package replaces that hardware layer with a calibrated analytic model:

- :mod:`repro.models.zoo`          -- the 11 Table-IV workloads and their
  per-model cost parameters.
- :mod:`repro.models.perf`         -- ``(model, instance, batch, procs) ->
  (latency, throughput, memory)``; a roofline-with-overlap model calibrated
  against the InceptionV3 anchor measurements quoted in SIII-B.
- :mod:`repro.models.interference` -- cross-workload slowdowns for
  *heterogeneous* MPS sharing (used only by the gpulet/iGniter baselines;
  ParvaGPU's homogeneous segments avoid it by construction), so its
  names are imported on first access.
"""

from typing import TYPE_CHECKING

from repro import _lazy
from repro.models.zoo import ModelSpec, WORKLOADS, get_model, model_names
from repro.models.perf import (
    MAX_BATCH,
    OperatingPoint,
    PerfModel,
    PROFILE_BATCH_SIZES,
    PROFILE_PROCESS_COUNTS,
)

if TYPE_CHECKING:
    from repro.models.interference import InterferenceModel, InterferenceOracle

#: Only the MPS-sharing baselines use the interference model.
_LAZY: _lazy.LazyTable = {
    "repro.models.interference": ("InterferenceModel", "InterferenceOracle"),
}

__all__ = [
    "ModelSpec",
    "WORKLOADS",
    "get_model",
    "model_names",
    "MAX_BATCH",
    "OperatingPoint",
    "PerfModel",
    "PROFILE_BATCH_SIZES",
    "PROFILE_PROCESS_COUNTS",
    "InterferenceModel",
    "InterferenceOracle",
]


def __getattr__(name: str) -> object:
    return _lazy.load(__name__, globals(), _LAZY, name)


def __dir__() -> list[str]:
    return _lazy.names(globals(), _LAZY)
