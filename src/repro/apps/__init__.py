"""Evaluation applications (paper §4, Figures 7 and 8).

* :mod:`~repro.apps.gauss_jordan` — message-based parallel Gauss–Jordan
  elimination with partial pivoting (arbiter + pivot-row broadcast),
* :mod:`~repro.apps.sor` — successive over-relaxation Poisson solver on
  an N×N process grid with halo exchange and a convergence monitor,
* :mod:`~repro.apps.paradigm` — the message-passing vs shared-variable
  study behind ``study_paradigm``.
"""

from .gauss_jordan import (
    gauss_jordan_parallel,
    gauss_jordan_sequential,
    gj_sequential_sim_time,
    gj_speedup,
)
from .sor import (
    poisson_reference,
    sor_parallel,
    sor_sequential,
    sor_per_iteration_speedup,
)

__all__ = [
    "gauss_jordan_parallel",
    "gauss_jordan_sequential",
    "gj_sequential_sim_time",
    "gj_speedup",
    "poisson_reference",
    "sor_parallel",
    "sor_sequential",
    "sor_per_iteration_speedup",
]
