"""Every public export of every llab module resolves."""

import importlib
import pkgutil

import llab


def test_every_listed_name_resolves():
    listed = {}
    for info in pkgutil.iter_modules(llab.__path__):
        mod = importlib.import_module(f"llab.{info.name}")
        if hasattr(mod, "__all__"):
            listed[info.name] = mod
    assert {"partial", "locality", "expansion", "fusion", "checks"} <= set(listed)
    missing = [f"llab.{name}.{attr}" for name, mod in listed.items()
               for attr in mod.__all__ if not hasattr(mod, attr)]
    assert not missing


def test_partial_no_longer_exports_the_generic_quotient():
    from llab import partial

    for name in ("TablePartial", "CosetPartition", "QuotientPartial"):
        assert name not in partial.__all__
        assert not hasattr(partial, name)


def test_dead_helpers_are_gone():
    import inspect

    from llab import fusion, permgroup

    for name in ("regular_group", "core_commutator_slice"):
        assert not hasattr(permgroup, name)
    assert not hasattr(permgroup.FiniteGroup, "subgroup")
    assert not hasattr(permgroup.Subgroup, "meet")
    params = inspect.signature(fusion.quotient_fusion_check).parameters
    assert "delta" not in params and "delta_bar" not in params
