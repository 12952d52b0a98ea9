"""The packages' ``__all__`` lists: every name resolves, none is listed
twice, and the deleted coalition API stays gone.  A plain import would
miss a stale entry; a star import would not."""

import importlib

import pytest

MODULES = ("fedscore", "fedscore.fedsim", "fedscore.experiments")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), sorted(
        n for n in set(exported) if exported.count(n) > 1)
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_coalition_class_and_table_writer_are_gone(name):
    exported = importlib.import_module(name).__all__
    assert {"Coalition", "save_table_game"}.isdisjoint(exported)
