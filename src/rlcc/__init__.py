"""Reed-Muller codes over field towers, plane-line consistency walks,
canonical proximity proofs, and the composed relaxed locally
correctable code, with a Monte-Carlo harness for the quantitative
bounds."""

from .gf import Field, parse_descriptor
from .geometry import PlaneRep
from .pcpp import BOT, PcppParams
from .rm import RmParams

__all__ = [
    "Field",
    "parse_descriptor",
    "PlaneRep",
    "RmParams",
    "PcppParams",
    "BOT",
]

__version__ = "0.1.0"
