"""Exact arithmetic for tame towers of local fields.

Models tamely ramified towers over F = F_q((t)), decides minimality and
genericity of elements, constructs and verifies defining sequences of
strata, and translates between the two constructions' datum skeletons,
with a brute-force matrix oracle cross-checking every closed form.

Submodules load on first use (PEP 562).  Records are named tuples
(OrderDesc aside), so each also equals the plain tuple of its values.
"""

from .errors import TameStrataError

__all__ = [
    "TameStrataError", "corpus", "ffq", "minimal", "oracle", "strata",
    "tame", "translate", "verifysuite",
]

__version__ = "0.1.0"


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return import_module(f".{name}", __name__)
