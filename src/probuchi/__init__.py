"""probuchi: exact-arithmetic toolkit for probabilistic automata on infinite words.

The submodules and the names re-exported below load on first use (PEP 562),
so a process pays only for the engines it touches: ``probuchi.decide`` and
``from probuchi import gen_m_id`` import their module when first asked for.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "Automaton",
        "AutomatonError",
        "BuchiAcceptance",
        "ConstructionError",
        "InvalidAutomatonError",
        "LassoWord",
        "RabinAcceptance",
        "RankFunction",
        "ResourceLimitError",
        "UnknownSymbolError",
        "ValidationReport",
        "infer_hierarchy",
        "lasso",
        "post",
        "validate",
    ),
    "markov": (
        "RationalMatrix",
        "binary_value_lasso",
        "final_passage_matrix",
        "lasso_acceptance",
        "word_matrix",
    ),
    "construct": (
        "almost_sure_intersection",
        "almost_sure_union",
        "complement_to_fpm",
        "dra_to_hpba",
        "fpm_product",
        "gen_m_id",
        "gen_m_id_squared",
        "gen_m_id_swapped",
        "gen_p3",
        "gen_succinct",
        "generate_example",
        "hpba_to_nba",
        "rabin_decomposition",
        "reject_pba",
        "rename_states",
        "safety_closure",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("construct", "core", "decide", "graphs", "markov", "sim", "textio")

__all__ = [*_HOME, *_SUBMODULES]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
