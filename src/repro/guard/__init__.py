"""Runtime self-verification and graceful degradation (``repro.guard``).

Four pieces, built for the property production serving stacks have —
every optimized path is checked in production and degrades per-component,
not globally:

- :mod:`repro.guard.dispatch` — per-kernel guarded dispatch: sampled
  scalar-oracle checks with a circuit breaker per vectorized kernel;
- :mod:`repro.guard.guardrails` — cheap stage-boundary numeric invariant
  checks;
- :mod:`repro.guard.artifact` — integrity headers, checksum verification
  and quarantine for on-disk artifacts (saved models and samples, the
  serving registry's ``.spm`` files);
- :mod:`repro.guard.health` — the :class:`HealthReport` telemetry that
  every experiment's :class:`~repro.runtime.runner.RunReport` carries
  (``report.health``) and the CLI renders.

See ``docs/robustness.md`` ("Guarded dispatch & artifact integrity").
"""

from repro.guard.dispatch import (
    DEFAULT_CHECK_RATE,
    GUARDED_KERNELS,
    GuardConfig,
    KernelGuard,
    approx_equal,
    guarded_call,
    health_report,
    inject_divergence,
    kernel_guard,
    registry,
    reset_guards,
)
from repro.guard.health import (
    DivergenceEvent,
    DriftEvent,
    GuardrailHit,
    HealthReport,
    KernelHealth,
)

__all__ = [
    "DEFAULT_CHECK_RATE",
    "DivergenceEvent",
    "DriftEvent",
    "GUARDED_KERNELS",
    "GuardConfig",
    "GuardrailHit",
    "HealthReport",
    "KernelGuard",
    "KernelHealth",
    "approx_equal",
    "guarded_call",
    "health_report",
    "inject_divergence",
    "kernel_guard",
    "registry",
    "reset_guards",
]
