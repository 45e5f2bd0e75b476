"""Combinatorial machinery for stellated and stacked spheres and balls."""

from .complexes import Classification, Complex, from_facets
from .moves import (
    BistellarMove,
    MoveCertificate,
    ShellingMove,
    apply_bistellar,
    apply_shelling,
    bistellar_options,
    replay,
    standard_ball,
    standard_sphere,
)

__all__ = [
    "Classification",
    "Complex",
    "BistellarMove",
    "ShellingMove",
    "MoveCertificate",
    "from_facets",
    "standard_sphere",
    "standard_ball",
    "bistellar_options",
    "apply_bistellar",
    "apply_shelling",
    "replay",
]

__version__ = "0.1.0"
