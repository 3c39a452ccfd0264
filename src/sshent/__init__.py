"""Charge-resolved entanglement of intervals in dimerized chains with defects."""

from .model import ChainSpec, DefectSpec, hopping_bands, localization_length
from .linalg import FilledSea, NumericalError
from .specialfn import EllipticParams
from .groundstate import (
    CorrelationMatrix,
    OccupationPolicy,
    ZeroModePair,
    correlation_matrix,
    filled_sea,
    localized_zero_modes,
)
from .entanglement import (
    ChargeResolvedTable,
    charge_resolved_table,
    charged_moment,
    srpf,
    total_renyi,
    total_vn,
)

__version__ = "0.1.0"

__all__ = [
    "ChainSpec",
    "DefectSpec",
    "hopping_bands",
    "localization_length",
    "FilledSea",
    "NumericalError",
    "EllipticParams",
    "CorrelationMatrix",
    "OccupationPolicy",
    "ZeroModePair",
    "correlation_matrix",
    "filled_sea",
    "localized_zero_modes",
    "ChargeResolvedTable",
    "charge_resolved_table",
    "charged_moment",
    "srpf",
    "total_renyi",
    "total_vn",
    "__version__",
]
