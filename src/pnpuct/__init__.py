"""Sidelobe-free pseudo-noise pulse-compression thermography toolkit.

``import pnpuct`` imports no submodule. Each public name below is
imported from its module when it is first read, ``pnpuct.X`` and
``from pnpuct import X`` alike, and is then held here (PEP 562), so a
caller that never compresses never loads ``compression`` and the
``scipy.signal`` that it imports.
"""

import importlib

__version__ = "0.1.0"

# the public names of the package, by the module that defines them
_PUBLIC = {
    "codes": (
        "BARKER13", "CODE_TABLE_VERSION", "CodeKind", "PnCode",
        "acyclic_autocorrelation", "binarize_ls4", "check_code",
        "code_from_text", "code_to_text", "generate_ls", "generate_mls",
        "golay_pair", "load_code", "make_codes", "modify_for_perfect_pacf",
        "pacf", "perfect_bias", "primitive_taps", "save_code"),
    "compression": (
        "Normalization", "compress_stack", "compress_trace",
        "decimate_to_bit_rate", "snr_metric"),
    "dc_removal": (
        "design_matrix", "export_fit_map_csv", "fit_dc", "remove_dc",
        "remove_dc_stack"),
    "errors": (
        "AlreadyModified", "BadHeader", "BadMagic", "BiasMismatch",
        "DegenerateTrace", "EmptyRegion", "GainMismatch", "IndexOutOfRange",
        "InvalidCode", "InvalidConfig", "InvalidScene", "InvalidSeed",
        "InvalidStack", "InvalidWaveform", "NonFiniteData",
        "NonPositiveAmplitude", "NonPrimitivePolynomial", "NotLs4Compatible",
        "NotPrime", "OverwritesInput", "PipelineStageError", "PnPuctError",
        "RegionOverlap", "SeriesNotConverged", "ShapeMismatch", "StackChanged",
        "TimingMismatch", "TrailingBytes", "TruncatedFile",
        "UnencodableMetadata", "UnmodifiedCode", "UnsupportedLength"),
    "pipeline": ("run_pipeline",),
    "stack": (
        "FORMAT_VERSION", "ThermogramStack", "export_pixel_trace",
        "export_slice", "open_stack", "read_stack", "write_stack"),
    "thermal": (
        "PixelModel", "Region", "SceneConfig", "SimulatedStack",
        "impulse_response", "load_scene_config", "lpt_reference", "respond",
        "simulate_stack"),
    "waveform": (
        "ExcitationWaveform", "RectPulse", "Timing", "build_bipolar",
        "build_matched_filter", "build_unipolar", "waveform_to_csv",
        "waveform_to_stack"),
}
_OWNER = {name: module for module, names in _PUBLIC.items() for name in names}
# pnpuct.<module> imports the module, as the import system binds it here
_SUBMODULES = ("cli", *_PUBLIC)

__all__ = list(_OWNER)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
