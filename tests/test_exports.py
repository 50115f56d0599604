"""Every public export of every llab module resolves."""

import dataclasses
import importlib
import inspect
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
    from llab import expansion, fusion, locality, partial, permgroup

    for name in ("regular_group", "core_commutator_slice"):
        assert not hasattr(permgroup, name)
    assert not hasattr(permgroup.FiniteGroup, "subgroup")
    assert not hasattr(permgroup.Subgroup, "meet")
    params = inspect.signature(fusion.quotient_fusion_check).parameters
    assert "delta" not in params and "delta_bar" not in params
    assert not hasattr(fusion, "_conj_map")
    for attr in ("source", "image"):
        assert not hasattr(fusion.FHom, attr)
    assert not hasattr(locality.ObjectSet, "contains_mask")
    assert not hasattr(partial.PGHom, "apply")
    assert "GroupPartial" not in partial.__all__
    assert not hasattr(partial, "GroupPartial")
    fields = {cls: {f.name for f in dataclasses.fields(cls)}
              for cls in (expansion.TildeClass, expansion.ExpansionSeed)}
    assert "endpoints" not in fields[expansion.TildeClass]
    assert not {"xsets", "report"} & fields[expansion.ExpansionSeed]


def test_locality_takes_only_its_definition():
    # (L, Delta, S) and the prime: no debug label, no skip-validation switch
    from llab.locality import Locality

    params = list(inspect.signature(Locality).parameters)
    assert params == ["group", "members", "S", "delta", "p"]


def test_every_traced_name_resolves():
    # a renamed or deleted target would read 0 in a per-layer metric
    from bench.tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
