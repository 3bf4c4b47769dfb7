"""Plate geometry and material constants.

The plate occupies the rectangle (0, pi) x (-l, l): hinged on the two short
edges, free on the two long ones.  Everything downstream (series evaluation,
energy assembly, scans) is parametrized by the Poisson ratio and the
half-width l.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MaterialParams:
    """Poisson ratio and half-width of the plate (0, pi) x (-l, l)."""

    sigma: float
    half_width: float

    def __post_init__(self):
        if not 0.0 < self.sigma < 1.0:
            raise ValueError(f"sigma must lie in (0, 1), got {self.sigma}")
        if not 0.0 < self.half_width:
            raise ValueError(f"half_width must be positive, got {self.half_width}")
        if not 2.0 * self.half_width < np.pi:
            raise ValueError(
                f"plate width 2*half_width={2 * self.half_width} must be below pi"
            )

    @property
    def area(self):
        """Measure of the plate rectangle, 2*pi*l."""
        return 2.0 * np.pi * self.half_width
