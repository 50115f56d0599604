"""Every public export of every llab module resolves."""

import ast
import dataclasses
import functools
import importlib
import inspect
import pkgutil
from pathlib import Path

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
    from llab import caps, expansion, fusion, locality, partial, permgroup

    for name in ("regular_group", "core_commutator_slice"):
        assert not hasattr(permgroup, name)
    assert not hasattr(permgroup.FiniteGroup, "subgroup")
    assert not hasattr(permgroup.FiniteGroup, "is_closed_mask")
    assert not hasattr(permgroup.Subgroup, "meet")
    params = inspect.signature(fusion.quotient_fusion_check).parameters
    assert "delta" not in params and "delta_bar" not in params
    assert not hasattr(fusion, "_conj_map")
    for attr in ("source", "image", "inverse"):
        assert not hasattr(fusion.FHom, attr)
    # generated systems are restriction sets of composites, not a BFS
    assert not hasattr(fusion.FusionSystem, "_close")
    assert not hasattr(locality.ObjectSet, "contains_mask")
    assert not hasattr(locality, "restriction_cut")
    assert "restriction_cut" not in locality.__all__
    assert not hasattr(locality.Locality, "perm_subgroup")
    assert not hasattr(partial.PGHom, "apply")
    assert "GroupPartial" not in partial.__all__
    assert not hasattr(partial, "GroupPartial")
    assert not hasattr(partial, "_conjugates_outside")
    # class arithmetic that only tests used lives in tests/test_expansion.py
    for name in ("pi_plus", "gamma_form", "inverse_triple"):
        assert name not in expansion.__all__
        assert not hasattr(expansion, name)
    fields = {cls: {f.name for f in dataclasses.fields(cls)}
              for cls in (expansion.TildeClass, expansion.ExpansionSeed)}
    assert "endpoints" not in fields[expansion.TildeClass]
    assert not {"xsets", "report"} & fields[expansion.ExpansionSeed]
    # helpers only tests called, and wrappers that added nothing to their call
    for name in ("pconj", "perm_from_cycles"):
        assert not hasattr(permgroup, name)
    for cls, names in ((permgroup.FiniteGroup, ("element_order", "subgroup_of")),
                       (permgroup.Subgroup, ("conjugate", "center", "join")),
                       (fusion.FusionSystem, ("is_weakly_closed", "is_strongly_closed",
                                              "trivial_on")),
                       (fusion.FHom, ("_mapping",)),
                       (locality.Locality, ("sub",)),
                       (locality.ObjectSet, ("__contains__", "__iter__", "__len__"))):
        for name in names:
            assert not hasattr(cls, name), (cls, name)
    assert isinstance(inspect.getattr_static(fusion.FHom, "mapping"), functools.cached_property)
    for name in ("s_of_word", "fusion_of"):
        assert name not in locality.__all__
        assert not hasattr(locality, name)
    assert "axiom_table" not in {f.name for f in dataclasses.fields(caps.Caps)}
    assert list(inspect.signature(fusion.fusion_from_group).parameters) == ["G", "p"]
    # PGHom methods without a src/ caller; their references live in the tests
    for cls, names in ((partial.PGHom, ("kernel", "is_projection", "_require_hom",
                                        "apply_word")),
                       (partial.PartialGroup, ("domain_words",)),
                       (fusion.FusionSystem, ("sub",))):
        for name in names:
            assert not hasattr(cls, name), (cls, name)
    # a tower is (L/N, the grown quotient): no report of constant checks
    assert "QuotientExpansionReport" not in expansion.__all__
    assert not hasattr(expansion, "QuotientExpansionReport")
    # N_L(V) and C_L(V), which no command builds, live in the tests; so
    # does their one centric base per locality
    for name in ("normalizer_locality", "centralizer_locality"):
        assert name not in locality.__all__
        assert not hasattr(locality, name)
    assert not hasattr(locality, "_centric_base")
    G = permgroup.group_from_generators(3, [[1, 0, 2], [1, 2, 0]])
    S = permgroup.sylow_p(G.top, 2)
    L = locality.Locality(G, S.members(), S, locality.object_set(S, [S]), 2)
    assert not hasattr(L, "_centric")
    # duplicates of the code behind them, and members no run or test entered
    for cls, names in ((partial.PartialSubgroup, ("__iter__", "mask", "key")),
                       (partial.PartialGroup, ("sort_key",)),
                       (permgroup.Subgroup, ("contains",))):
        for name in names:
            assert not hasattr(cls, name), (cls, name)
    for name in ("__contains__", "__le__"):
        assert name not in vars(partial.PartialSubgroup)
    assert not hasattr(permgroup, "all_subgroups")
    assert not hasattr(llab, "all_subgroups")
    assert not hasattr(partial.PGHom(L, L, {x: x for x in L.elements}), "_verified")
    # Locality is the one carrier in src/: the generic word protocol lives
    # on the test carriers, and growths are identified by full_expand's
    # argument, not by regenerating them from the base
    for name in ("inv", "in_domain", "binary", "domain_row", "walk_start", "walk_step",
                 "walk_row", "walk_in_domain", "walk_product", "product", "conjugates"):
        assert name not in vars(partial.PartialGroup), name
        assert name in vars(locality.Locality), name
    assert "base" not in inspect.signature(expansion.check_unique_iso).parameters
    # conjugates come by S_g block; the one-pair conjugate is a test reference
    assert not hasattr(locality.Locality, "conj")
    # p'-cores and normal subgroups of ambient groups, which no command reads
    for name in ("p_prime_core", "normal_subgroups"):
        assert not hasattr(permgroup, name) and not hasattr(llab, name)
    assert not hasattr(permgroup.Subgroup, "is_normal_in")


# errors < caps < permgroup < {fusion, partial} < locality < expansion < checks < cli
LAYERS = {"errors": 0, "caps": 1, "permgroup": 2, "fusion": 3, "partial": 3,
          "locality": 4, "expansion": 5, "checks": 6, "cli": 7}


def test_modules_import_strictly_downward():
    # every `from ... import` in a module body or inside a function; the
    # package's __init__ only re-exports
    modules = {info.name for info in pkgutil.iter_modules(llab.__path__)}
    assert modules == set(LAYERS)
    upward = []
    for name, layer in LAYERS.items():
        path = Path(llab.__file__).parent / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0:
                parts = (node.module or "").split(".")
                if parts[0] != "llab":
                    continue
                targets = parts[1:2] or [a.name for a in node.names]
            else:
                targets = ([node.module.split(".")[0]] if node.module
                           else [a.name for a in node.names])
            for target in targets:
                if LAYERS[target] >= layer:
                    upward.append((name, node.lineno, target))
    assert upward == []


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
