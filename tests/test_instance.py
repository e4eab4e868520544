"""One ``Instance`` per run: a ``suite`` builds each shared object once.

Every function below is wrapped under each name that binds it in a
``locfusion`` module (as the benchmark's tracer does), the computation
behind each question declared with ``fusion.kept`` through its
``__wrapped__``, and a whole ``suite`` runs in-process.
"""

import os
import subprocess
import sys
from functools import reduce
from operator import or_
from pathlib import Path

import pytest

import locfusion
from locfusion import fusion, instances, locality, permgroup, products
from locfusion.cli import main
from locfusion.permgroup import compose, conjugate, generated_subgroup


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


def _record_computations(monkeypatch, question):
    """Wrap the computation behind a ``kept`` question; return the list of
    the (args, kwargs) of each computation, not of each question."""
    fn = question.__wrapped__
    calls = []

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return fn(*args, **kwargs)

    monkeypatch.setattr(question, "__wrapped__", recorded)
    return calls


def _most_per_object(calls):
    """Largest number of calls on one first argument (by identity)."""
    counts = {}
    for args, _ in calls:
        counts[id(args[0])] = counts.get(id(args[0]), 0) + 1
    return max(counts.values(), default=0)


def _each_once(calls):
    """No two calls ask the same question of one system: the first
    argument by its content (Sylow mask, maps and morphism cap), so equal
    systems held by different objects count as one, with the same other
    arguments (a subsystem hashes by its content)."""
    asked = [((F.t, F.maps, F.morphism_cap), *args) for (F, *args), _ in calls]
    return len(asked) == len(set(asked))


@pytest.mark.parametrize("name", instances.BUNDLED)
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
    # the questions a system keeps its answers to, where each is answered
    normalizers = _record_computations(monkeypatch, fusion.normalizer_system)
    normals = _record_computations(monkeypatch, fusion.is_normal_subsystem)
    normal_subs = _record_computations(monkeypatch, fusion.normal_subsystems)
    subnormals = _record_computations(monkeypatch,
                                      fusion.subnormal_subsystems)
    saturations = _record_computations(monkeypatch, fusion.is_saturated)
    others = [_record_computations(monkeypatch, q) for q in (
        fusion.FusionSystem.maps_by_mask, fusion.FusionSystem.conjugates,
        fusion.FusionSystem.classes, fusion.FusionSystem.point_images,
        fusion.centric_radicals)]

    assert main(["suite", name, "--out", str(tmp_path / "r.json")]) == 0

    def over_sylow(args, kwargs):
        acting = kwargs.get("acting", args[2] if len(args) > 2 else None)
        return args[1].eset == S.eset and kwargs.get("t") is None and (
            acting is None or set(acting) == set(G.elements))

    assert len(builds) == 1
    assert len(setups) == n_products
    assert sum(over_sylow(a, k) for a, k in of_group) == 1
    assert _most_per_object(linking) == (1 if n_products else 0)
    assert len(via_loc) <= n_products and bool(via_loc) == bool(n_products)
    assert _most_per_object(enums) <= 1
    # the product path asks normalizers and normality; the other suites
    # ask neither
    assert bool(normalizers) == bool(normals) == bool(n_products)
    assert _each_once(normalizers) and _each_once(normals)
    assert _each_once(normal_subs) and _each_once(subnormals)
    assert saturations and _each_once(saturations)
    assert all(map(_each_once, others))


@pytest.mark.parametrize("name", ["product-24", "product-48"])
def test_one_run_shares_one_index(name):
    """Every system the product path builds lives on the positions of the
    run's S: it holds F's index itself, and its mask t is its Sylow
    subgroup, the union of the sources of its maps, which is the
    subgroup the descriptor names for it, worked out element by element.
    The systems: F, F_S(L), and per product E, D, N_F(T), N_ED(T), ED by
    both routes, the oracle, and each link of the subnormal chains of E
    in F, of D in N_F(T) and of ED in F."""
    d = instances.load_descriptor(name)
    ctx = instances.Instance(d)
    F, G, S = ctx.F, ctx.G, ctx.S
    idx = F.index

    def over(rows):
        return generated_subgroup(G, instances._perms(rows, G)).eset

    systems = [("F", F, S.eset),
               ("F_S(L)", fusion.fusion_of_locality(ctx.L), S.eset)]
    for pname, spec in sorted(d["fusion_products"].items()):
        st = ctx.product(pname)
        E, D = st["E"], st["D"]
        T = over(spec["E"]["over"])
        NST = frozenset(s for s in S if all(conjugate(x, s) in T for x in T))
        R = NST if spec["D"]["kind"] == "normalizer" else \
            over(spec["D"]["over"])
        TR = frozenset(compose(a, b) for a in T for b in R)
        o = spec["oracle"]["over"]
        ed = ctx.ed(pname)[0]
        NFT = fusion.normalizer_system(F, idx.mask(T))
        systems += [
            ("E", E, T), ("D", D, R), ("N_F(T)", NFT, NST),
            ("N_ED(T)", fusion.normalizer_system(ed, idx.mask(T)), NST & TR),
            ("ED", ed, TR),
            ("ED by L", products.product_ed_via_locality(
                st["L"], st["N_ids"], st["K_ids"]), TR),
            ("oracle", st["oracle"], S.eset if o == "sylow" else over(o))]
        try:
            systems.append(("ED by formula", products.product_ED(F, E, D), TR))
        except products.NormalityRequired:
            assert pname == "subn"
        for ambient, X in ((F, E), (NFT, D), (F, ed)):
            chain = fusion.is_subnormal_subsystem(ambient, X)[1]
            assert chain
            systems += [("chain link", link, None) for link in chain]
    for label, X, sylow in systems:
        assert X.index is idx, label
        assert X.t == reduce(or_, (src for src, _ in X.maps)), label
        if sylow is not None:
            assert X.t == idx.mask(sylow), label


def test_suite_indexes_each_subgroup_once(monkeypatch, tmp_path):
    """Every SIndex comes from the group that keeps it, so a run builds
    at most one per element set."""
    built = _record_calls(monkeypatch, permgroup, "SIndex")
    assert main(["suite", "product-24", "--out", str(tmp_path / "r.json")]) \
        == 0
    keys = [args[0].eset for args, _ in built]
    assert keys and len(keys) == len(set(keys))


_STATE_CHECK = """
import copy, sys
import locfusion.cli
mods = [m for k, m in sorted(sys.modules.items())
        if k.startswith("locfusion") and m is not None]
def state():
    return {(m.__name__, k): copy.deepcopy(v) for m in mods
            for k, v in vars(m).items()
            if not k.startswith("__") and type(v) in (dict, list, set)}
before = state()
assert before
code = locfusion.cli.main(["suite", sys.argv[1], "--out", sys.argv[2]])
after = state()
changed = sorted(k for k in before if after[k] != before[k])
print(code, changed)
"""


@pytest.mark.parametrize("name", ["product-24", "instance-b"])
def test_suite_leaves_module_state_unchanged(name, tmp_path):
    """A fresh interpreter, so that what an earlier test built cannot
    hide a module-level cache: no module-level dict, list or set of
    ``locfusion`` changes during a ``suite`` run."""
    src = str(Path(locfusion.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _STATE_CHECK, name, str(tmp_path / "r.json")],
        capture_output=True, text=True, env=env, check=True).stdout
    assert out.strip() == "0 []"


def test_every_product_d_keeps_the_run_cap():
    """D of every bundled product, the inner ones as the normalizer one,
    is built under the run's morphism cap, as E and F are."""
    for name in ("product-24", "product-48"):
        d = instances.load_descriptor(name)
        ctx = instances.Instance(d, morphism_cap=5000)
        for product in sorted(d["fusion_products"]):
            st = ctx.product(product)
            assert (st["D"].morphism_cap, st["E"].morphism_cap,
                    st["F"].morphism_cap) == (5000, 5000, 5000), product
