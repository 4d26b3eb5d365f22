"""Tolerance and run configuration dataclasses."""

from __future__ import annotations

import dataclasses
import math

from .errors import DomainError


@dataclasses.dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used by the floating-point modules.

    iso   : isotropy / orthogonality residual on normalized period vectors
    orth  : membership residual for "lies in the subspace" tests
    pos   : minimum Gram eigenvalue for a 3-plane to count as positive
    lie   : rank decision threshold in Lie bracket closure
    wall  : restriction-norm threshold for wall incidence
    """

    iso: float = 1e-9
    orth: float = 1e-9
    pos: float = 1e-6
    lie: float = 1e-8
    wall: float = 1e-8

    def replace(self, **kwargs) -> "Tolerances":
        return dataclasses.replace(self, **kwargs)


DEFAULT_TOL = Tolerances()
TOL_NAMES = tuple(f.name for f in dataclasses.fields(Tolerances))


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """CLI-level configuration: tolerances plus run parameters."""

    tol: Tolerances = DEFAULT_TOL
    seed: int | None = None

    def __post_init__(self):
        for name in TOL_NAMES:
            value = getattr(self.tol, name)
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"tolerance {name} must be positive and finite, got {value}")
        seed = self.seed
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int) or seed < 0):
            raise DomainError(f"seed must be a non-negative integer, got {self.seed!r}")
