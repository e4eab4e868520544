"""One ``Instance`` per run: a ``suite`` builds each shared object once.

Every function below is wrapped under each name that binds it in a
``locfusion`` module (as the benchmark's tracer does), and a whole
``suite`` runs in-process.
"""

import sys

import pytest

from locfusion import fusion, instances, locality, products
from locfusion.cli import main


def _record_calls(monkeypatch, module, name):
    """Wrap module.name everywhere it is bound; return the list of the
    (args, kwargs) of each call."""
    fn = getattr(module, name)
    calls = []

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return fn(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if mod is not None and mod.__name__.startswith("locfusion"):
            for key, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, key, recorded)
    return calls


def _most_per_object(calls):
    """Largest number of calls on one first argument (by identity)."""
    counts = {}
    for args, _ in calls:
        counts[id(args[0])] = counts.get(id(args[0]), 0) + 1
    return max(counts.values(), default=0)


@pytest.mark.parametrize("name", ["product-24", "product-48"])
def test_suite_builds_each_object_once(name, monkeypatch, tmp_path):
    d = instances.load_descriptor(name)
    G = instances.group_of(d)
    S = instances.sylow_of(d, G)
    n_products = len(d["fusion_products"])

    builds = _record_calls(monkeypatch, instances, "build_locality")
    setups = _record_calls(monkeypatch, instances, "product_setup")
    of_group = _record_calls(monkeypatch, fusion, "fusion_of_group")
    linking = _record_calls(monkeypatch, locality, "is_linking_locality")
    via_loc = _record_calls(monkeypatch, products, "product_ed_via_locality")
    enums = _record_calls(monkeypatch, products,
                          "enumerate_subnormal_subsystems")

    assert main(["suite", name, "--out", str(tmp_path / "r.json")]) == 0

    def over_sylow(args, kwargs):
        acting = kwargs.get("acting", args[2] if len(args) > 2 else None)
        return args[1].eset == S.eset and (
            acting is None or set(acting) == set(G.elements))

    assert len(builds) == 1
    assert len(setups) == n_products
    assert sum(over_sylow(a, k) for a, k in of_group) == 1
    assert linking and _most_per_object(linking) == 1
    assert 1 <= len(via_loc) <= n_products
    assert _most_per_object(enums) <= 1
