"""Combinatorial machinery for stellated and stacked spheres and balls."""

from .complexes import (
    Classification,
    Complex,
    boundary,
    classify,
    f_vector,
    from_facets,
    induced,
    is_l_neighborly,
    join,
    link,
    missing_faces,
    skeleta_equal,
    star,
)
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
    "f_vector",
    "link",
    "star",
    "induced",
    "join",
    "boundary",
    "missing_faces",
    "is_l_neighborly",
    "classify",
    "skeleta_equal",
    "standard_sphere",
    "standard_ball",
    "bistellar_options",
    "apply_bistellar",
    "apply_shelling",
    "replay",
]

__version__ = "0.1.0"
