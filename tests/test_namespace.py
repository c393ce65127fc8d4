"""The package namespace: ``import pnpuct`` imports no submodule, and
each public name imports its module when it is first read."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pnpuct
import pnpuct.dc_removal
from pnpuct import PnPuctError

SRC = str(Path(pnpuct.__file__).resolve().parents[1])


def loaded_after(statements):
    """sys.modules of a fresh interpreter once ``statements`` have run."""
    code = f"import json, sys\n{statements}\nprint(json.dumps(sorted(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code],
                            env=dict(os.environ, PYTHONPATH=SRC),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout))


class TestFreshInterpreter:
    def test_import_loads_no_submodule_and_no_scipy(self):
        modules = loaded_after("import pnpuct")
        assert "pnpuct" in modules
        assert not [m for m in modules if m.startswith("pnpuct.")
                    or m.partition(".")[0] == "scipy"]

    def test_a_stage_loads_no_stage_it_does_not_use(self):
        modules = loaded_after("from pnpuct.thermal import SimulatedStack")
        assert "pnpuct.thermal" in modules
        assert not modules & {"scipy.signal", "scipy.linalg",
                              "pnpuct.dc_removal", "pnpuct.compression",
                              "pnpuct.pipeline", "pnpuct.cli"}

    def test_a_submodule_resolves_before_anything_imports_it(self):
        modules = loaded_after(
            "import pnpuct\n"
            "assert 'pnpuct.dc_removal' not in sys.modules\n"
            "assert pnpuct.dc_removal is sys.modules['pnpuct.dc_removal']")
        assert "pnpuct.compression" not in modules


class TestNamespace:
    def test_each_public_name_is_its_modules_object(self):
        assert len(set(pnpuct.__all__)) == len(pnpuct.__all__)
        wrong = [name for name in pnpuct.__all__
                 if getattr(pnpuct, name) is not getattr(importlib.import_module(
                     f"pnpuct.{pnpuct._OWNER[name]}"), name)]
        assert not wrong

    def test_a_name_is_imported_when_first_read_and_then_held(
            self, monkeypatch):
        monkeypatch.delitem(vars(pnpuct), "snr_metric", raising=False)
        assert pnpuct.snr_metric is pnpuct.compression.snr_metric
        assert vars(pnpuct)["snr_metric"] is pnpuct.compression.snr_metric

    def test_a_submodule_is_read_through_the_namespace(self, monkeypatch):
        # as before any import of it has bound it in the package
        monkeypatch.delattr(pnpuct, "dc_removal")
        assert pnpuct.dc_removal is sys.modules["pnpuct.dc_removal"]

    def test_dir_holds_every_public_name_and_submodule(self):
        assert {*pnpuct.__all__, "cli", "stack",
                "__version__"} <= set(dir(pnpuct))

    def test_an_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name") as info:
            pnpuct.no_such_name
        assert not isinstance(info.value, PnPuctError)
        assert not hasattr(pnpuct, "no_such_name")

    @pytest.mark.parametrize("name, module", [
        ("DcFit", "dc_removal"), ("Pacf", "codes"), ("pacf_values", "codes"),
        ("MatchedFilter", "waveform"), ("MlsSpec", "codes"),
        ("WaveformKind", "waveform")])
    def test_a_removed_result_wrapper_is_no_name(self, name, module):
        # fit_dc returns its fit-map row, pacf its lag vector and
        # build_matched_filter its taps; generate_mls takes the register
        # and an amplitude marks a unipolar waveform
        assert len(pnpuct.__all__) == 86
        with pytest.raises(AttributeError, match=name):
            getattr(pnpuct, name)
        assert not hasattr(importlib.import_module(f"pnpuct.{module}"), name)
