"""Smoke tests over the public API surface."""

import importlib

import pytest

import repro


class TestExports:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.spi",
            "repro.spi.adapters",
            "repro.variants",
            "repro.sim",
            "repro.synth",
            "repro.apps",
            "repro.report",
        ],
    )
    def test_all_exports_resolve(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name} missing"

    def test_version(self):
        assert repro.__version__

    def test_errors_exported_at_top_level(self):
        assert issubclass(repro.ModelError, repro.ReproError)
        assert issubclass(repro.VariantError, repro.ReproError)
        assert issubclass(repro.SynthesisError, repro.ReproError)

    def test_quickstart_docstring_example(self):
        """The example in repro.__doc__ must keep working."""
        from repro.apps import figure2

        rows = figure2.table1_rows()
        assert rows[0]["total"] == 34.0

    def test_subpackages_reachable_from_top(self):
        assert repro.spi is importlib.import_module("repro.spi")
        assert repro.variants is importlib.import_module("repro.variants")

    def test_no_all_entry_is_private(self):
        for module in ("repro.spi", "repro.variants", "repro.synth"):
            mod = importlib.import_module(module)
            for name in mod.__all__:
                assert not name.startswith("_")

    def test_synth_exports_one_search_state_name(self):
        import repro.synth as synth

        assert {"SearchState", "ReferenceSearchState"} <= set(synth.__all__)
        assert "IncrementalEvaluator" not in synth.__all__
        with pytest.raises(ImportError):
            from repro.synth import IncrementalEvaluator  # noqa: F401
