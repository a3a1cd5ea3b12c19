"""Two-well chain energies: twin relaxation and transition layer estimates.

The exports load lazily (PEP 562): `import twinchain` imports no submodule,
and so no numpy, until one of the names below is first looked up.
"""

import importlib

_EXPORTS = {
    "wells": ["WellPair", "build_wells", "boundary_gradient", "dist_to_well", "rotation"],
    "lattice": ["BoundaryClamp", "ChainState", "LatticeGeometry", "affine_chain",
                "check_admissible", "load_chain", "reconstruct", "save_chain"],
    "energy": ["EnergyBreakdown", "chain_energy", "density", "lattice_energy",
               "save_breakdown"],
    "minimize": ["ChainProblem", "MinimizationReport", "MinimizeOptions",
                 "laminate_chain", "newton_minimize", "preoptimize_middle", "twin_chain"],
    "analysis": ["DecayFit", "GoodLineFailure", "GoodLines", "InterfaceRecord",
                 "WellClassification", "classify", "deviation_profile", "find_good_lines",
                 "fit_exponential", "interface_positions"],
    "gamma": ["AverageDownResult", "LayerEnergyEstimate", "LayerSpec", "average_down",
              "estimate_EK", "estimate_layer", "save_layer_estimates", "thin_strip_energy"],
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    # looked up on every access, so a patched submodule attribute shows here too
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
