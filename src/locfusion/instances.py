"""Bundled instance descriptors and their builders.

Descriptors are JSON files shipped with the package.  A descriptor names
a permutation group, a prime, a Sylow subgroup (explicit or discovered),
an object-set rule, and named subgroup data used by the verification
suites: partial normal subgroups N, choices of K, and fusion-product
configurations (E, D, K, oracle).

``Instance`` is one run's context over a descriptor: it holds the caps
and builds each shared object once, through the public builders below,
keeping it as an attribute or, per product name, as an answer
(``fusion.kept``).  Called without a context, those builders return
fresh objects.
"""

from __future__ import annotations

import json
from functools import cached_property
from pathlib import Path
from typing import Iterable, Optional

from . import fusion as fu
from . import products as pr
from .locality import Locality, delta_min_order, locality_from_group
from .permgroup import (DEFAULT_GROUP_CAP, FiniteGroup, SizeCapExceeded,
                        Subgroup, generated_subgroup, is_prime,
                        sylow_subgroup, _p_part)

BUNDLED = ("instance-a", "instance-b", "product-24", "product-48",
           "group-8", "group-60")


class DescriptorError(ValueError):
    pass


def load_descriptor(name_or_path: str) -> dict:
    """Load a descriptor: an argument that is exactly a bundled name
    reads the packaged file, and any other argument is a path.  A path
    that cannot be read raises its ``OSError``."""
    if name_or_path in BUNDLED:
        path = Path(__file__).with_name("instances") / f"{name_or_path}.json"
    else:
        path = Path(name_or_path)
    try:
        d = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DescriptorError(f"descriptor is not valid JSON: {e}") from e
    _check_schema(d)
    return d


def _check_schema(d) -> None:
    """The shape of every section present, checked once on load, so that
    a malformed section is an input error before any group is built:
    required keys, objects, integers, a string name, a boolean
    ``enumerate_minimality``, and every field read as a list
    (permutations, subgroup elements, K names) a list of them, the K
    names of a theorem section at least one, and each delta rule one of
    ``{"all": true}``, ``{"min_order": n}`` or ``{"explicit": [...]}``."""
    _require_keys(d, ("name", "group", "p"), "descriptor")
    _require(isinstance(d["name"], str), "'name'", "a string", d["name"])
    _require(_is_int(d["p"]), "'p'", "an integer", d["p"])
    if not is_prime(d["p"]):
        raise DescriptorError(f"'p' must be a prime, not {d['p']}")
    if "max_word_length" in d:  # accepted for old descriptors, not read
        mwl = d["max_word_length"]
        _require(_is_int(mwl), "'max_word_length'", "an integer", mwl)
        _require(mwl >= 1, "'max_word_length'", "at least 1", mwl)
    _require_perms(d.get("sylow", "auto"), "'sylow'", "auto")
    for key in ("normal_subgroups", "k_choices", "fusion_products"):
        _require_keys(d.get(key, {}), (), repr(key))
    for name, spec in d.get("normal_subgroups", {}).items():
        _require_keys(spec, (), f"normal subgroup {name!r}")
    deltas = [d["delta"]] if "delta" in d else []
    subgroups = [*d.get("normal_subgroups", {}).values(),
                 *d.get("k_choices", {}).values()]
    for key, keys in (("theorem1", ("n", "k")), ("theorem2", ("n", "k")),
                      ("restriction", ("delta", "n", "k"))):
        if key in d:
            _require_keys(d[key], keys, repr(key))
            k = d[key]["k"]
            names = [k] if key == "restriction" else k
            _require(isinstance(names, list) and names and all(
                isinstance(x, str) for x in names), f"{key!r} 'k'",
                "a name" if key == "restriction"
                else "a non-empty list of names", k)
            if "delta" in d[key]:
                deltas.append(d[key]["delta"])
            subgroups.append(d[key]["n"])
    for spec in deltas:
        _require_keys(spec, (), "delta")
        if len(spec) > 1:
            raise DescriptorError(
                f"a delta rule has exactly one key, not {sorted(spec)}")
        rule, value = next(iter(spec.items()), (None, None))
        if rule == "all":
            _require(value is True, "delta 'all'", "true", value)
        elif rule == "min_order":
            _require(_is_int(value), "delta 'min_order'", "an integer", value)
        elif rule == "explicit":
            _require(isinstance(value, list) and all(map(_is_perms, value)),
                     "delta 'explicit'", "a list of element lists", value)
        else:
            raise DescriptorError(f"unrecognized delta rule {spec!r}")
    for name, spec in d.get("fusion_products", {}).items():
        what = f"product {name!r}"
        _require_keys(spec, ("E", "D", "N", "K", "oracle"), what)
        _require_keys(spec["E"], ("over", "acting"), f"{what} 'E'")
        _require_keys(spec["D"], ("kind",), f"{what} 'D'")
        _require(spec["D"]["kind"] in ("inner", "normalizer"),
                 f"{what} 'D' 'kind'", "'inner' or 'normalizer'",
                 spec["D"]["kind"])
        _require_keys(spec["oracle"], ("over", "acting"), f"{what} 'oracle'")
        if "enumerate_minimality" in spec:
            _require(isinstance(spec["enumerate_minimality"], bool),
                     f"{what} 'enumerate_minimality'", "a boolean",
                     spec["enumerate_minimality"])
        fields = [("E", "over", None), ("E", "acting", None),
                  ("oracle", "over", "sylow"), ("oracle", "acting", "all")]
        if spec["D"]["kind"] == "inner":
            _require_keys(spec["D"], ("over",), f"{what} 'D'")
            fields.append(("D", "over", None))
        for part, key, word in fields:
            _require_perms(spec[part][key], f"{what} {part!r} {key!r}", word)
        subgroups += [spec["N"]] + ([] if spec["K"] == "all" else [spec["K"]])
    for spec in subgroups:
        if isinstance(spec, dict) and ("generators" in spec
                                       or "elements" in spec):
            key = "generators" if "generators" in spec else "elements"
            _require_perms(spec[key], f"subgroup {key!r}")
        elif not isinstance(spec, str):
            raise DescriptorError(f"bad subgroup spec {spec!r}")


def _require(ok: bool, what: str, kind: str, value) -> None:
    if not ok:
        raise DescriptorError(f"{what} must be {kind}, not {value!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_perms(value) -> bool:
    """A list of permutations, each a list of integers; ``_perms`` checks
    each against the degree where it is read."""
    return isinstance(value, list) and all(
        isinstance(x, list) and all(map(_is_int, x)) for x in value)


def _require_perms(value, what: str, word: Optional[str] = None) -> None:
    """A list of permutations, or ``word`` when one is given."""
    _require(_is_perms(value) or word is not None and value == word, what,
             (f"{word!r} or " if word else "") + "a list of permutations",
             value)


def _require_keys(spec, keys: Iterable[str], what: str) -> None:
    if not isinstance(spec, dict):
        raise DescriptorError(f"{what} must be an object, not {spec!r}")
    for key in keys:
        if key not in spec:
            raise DescriptorError(f"{what} missing {key!r}")


def _perms(rows: list[list[int]], G: FiniteGroup) -> list[tuple]:
    """Each row, a permutation of 1..degree of G, as a 0-indexed element
    (DescriptorError naming the first row that is not one)."""
    for images in rows:
        if sorted(images) != list(range(1, G.degree + 1)):
            raise DescriptorError(
                f"{images!r} is not a permutation of 1..{G.degree}")
    return [tuple(x - 1 for x in images) for images in rows]


def group_of(d: dict, cap: int = DEFAULT_GROUP_CAP) -> FiniteGroup:
    """The descriptor's group; its closure stops past ``cap`` elements."""
    try:
        return FiniteGroup.from_descriptor(d["group"], max_size=cap)
    except SizeCapExceeded:
        raise
    except Exception as e:
        raise DescriptorError(f"bad group descriptor: {e}") from e


def sylow_of(d: dict, G: FiniteGroup) -> Subgroup:
    spec = d.get("sylow", "auto")
    if spec == "auto":
        return sylow_subgroup(G, d["p"])
    S = generated_subgroup(G, _perms(spec, G))
    if S.order != _p_part(G.order, d["p"]):
        raise DescriptorError("explicit sylow has wrong order")
    return S


def delta_of(d: dict, G: FiniteGroup, S: Subgroup) -> list[Subgroup]:
    spec = d.get("delta", {"min_order": 1})
    if "all" in spec:
        return fu.subgroup_lattice(S)
    if "min_order" in spec:
        return delta_min_order(S, spec["min_order"])
    return [G.subgroup(_perms(elems, G)) for elems in spec["explicit"]]


def named_subgroup(d: dict, G: FiniteGroup, spec) -> Subgroup:
    """A subgroup from {"generators": [...]} or {"elements": [...]}."""
    if isinstance(spec, str):
        try:
            spec = d["normal_subgroups"][spec]
        except KeyError:
            raise DescriptorError(f"unknown subgroup name {spec!r}") from None
    if "generators" in spec:
        return generated_subgroup(G, _perms(spec["generators"], G))
    if "elements" in spec:
        return G.subgroup(_perms(spec["elements"], G))
    raise DescriptorError(f"bad subgroup spec {spec!r}")


def build_locality(d: dict, ctx: Optional[Instance] = None) -> Locality:
    """L_delta(G) of the descriptor, over the G and S of ``ctx`` (a fresh
    context by default), not validated: ``locality validate`` runs the
    validator on it."""
    ctx = ctx or Instance(d)
    delta = delta_of(d, ctx.G, ctx.S)
    return locality_from_group(ctx.G, ctx.S, delta, d["p"],
                               morphism_cap=ctx.morphism_cap)


def resolve_ids(L: Locality, sub: Subgroup) -> frozenset:
    """Intersect a subgroup of the realizing group with the carrier."""
    return frozenset(L.id_of[g] for g in sub.elements if g in L.id_of)


def k_choice(d: dict, L: Locality, name: str) -> frozenset:
    try:
        spec = d["k_choices"][name]
    except KeyError:
        raise DescriptorError(f"unknown K choice {name!r}") from None
    return resolve_ids(L, named_subgroup(d, L.realization, spec))


def product_setup(d: dict, name: str,
                  ctx: Optional[Instance] = None) -> dict:
    """Assemble everything a product verification needs from a descriptor,
    sharing G, S, F and L with ``ctx`` (a fresh context by default)."""
    try:
        spec = d["fusion_products"][name]
    except KeyError:
        raise DescriptorError(f"unknown product {name!r}") from None
    what = f"product {name!r}"
    ctx = ctx or Instance(d)
    G, S, F, cap = ctx.G, ctx.S, ctx.F, ctx.morphism_cap
    p = d["p"]

    def inside_s(field: str, rows) -> int:  # the mask of a subgroup of S
        H = generated_subgroup(G, _perms(rows, G))
        try:
            return F.mask_of(F.subgroup(H.eset))
        except fu.FusionError:
            raise DescriptorError(
                f"{what} {field} does not generate a subgroup of S") from None

    t = inside_s("'E' 'over'", spec["E"]["over"])
    E_act = generated_subgroup(G, _perms(spec["E"]["acting"], G))
    E = fu.fusion_of_group(G, S, acting=E_act.elements, p=p, cap=cap, t=t)

    dd = spec["D"]
    if dd["kind"] == "inner":
        D = fu.close(S, p, [], cap, t=inside_s("'D' 'over'", dd["over"]))
    else:
        D = fu.normalizer_system(F, t)

    L = ctx.L
    N_ids = resolve_ids(L, named_subgroup(d, G, spec["N"]))
    if spec["K"] == "all":
        K_ids = frozenset(range(L.n))
    else:
        K_ids = resolve_ids(L, named_subgroup(d, G, spec["K"]))

    osp = spec["oracle"]
    if osp["over"] == "sylow" and osp["acting"] == "all":
        oracle = F
    else:
        o_t = None if osp["over"] == "sylow" else inside_s(
            "'oracle' 'over'", osp["over"])
        o_act = G.elements if osp["acting"] == "all" else generated_subgroup(
            G, _perms(osp["acting"], G)).elements
        oracle = fu.fusion_of_group(G, S, acting=o_act, p=p, cap=cap, t=o_t)

    return {"G": G, "S": S, "F": F, "E": E, "T": E.S, "D": D, "L": L,
            "N_ids": N_ids, "K_ids": K_ids, "oracle": oracle,
            "enumerate_minimality": spec.get("enumerate_minimality", False),
            "name": f"{d['name']}:{name}"}


class Instance:
    """One run's context over a descriptor: the caps, and the objects the
    CLI handlers share, each built on first use and then kept.

    These are G and S; L with its object set Δ; F = F_S(G); and the
    subnormal subsystems of F, enumerated only when a product asks for
    minimality, each a ``cached_property``; and, per product name, its
    ``product_setup`` dict and its product E·D, each an answer kept in
    ``_verdicts`` by ``fusion.kept``.  Each is built by the public
    function of its module, looked up by name at call time, so a traced
    run sees every build.  Building nothing in ``__init__`` keeps a
    run's set-up to the descriptor load.
    """

    def __init__(self, d: dict, group_cap: int = DEFAULT_GROUP_CAP,
                 morphism_cap: int = fu.DEFAULT_MORPHISM_CAP):
        self.d = d
        self.group_cap = group_cap
        self.morphism_cap = morphism_cap
        self._verdicts: dict = {}  # per product name (``fusion.kept``)

    @cached_property
    def G(self) -> FiniteGroup:
        return group_of(self.d, self.group_cap)

    @cached_property
    def S(self) -> Subgroup:
        return sylow_of(self.d, self.G)

    @cached_property
    def L(self) -> Locality:
        return build_locality(self.d, ctx=self)

    @cached_property
    def F(self) -> fu.FusionSystem:
        return fu.fusion_of_group(self.G, self.S, p=self.d["p"],
                                  cap=self.morphism_cap)

    @cached_property
    def subnormal_subsystems(self) -> list[fu.FusionSystem]:
        return pr.enumerate_subnormal_subsystems(self.F)

    @fu.kept
    def product(self, name: str) -> dict:
        """The ``product_setup`` dict of a named product."""
        return product_setup(self.d, name, ctx=self)

    @fu.kept
    def ed(self, name: str) -> tuple:
        """(ED, route, checks) of a named product, by
        ``products.product_by_route``; the checks are its cross-route
        agreement and whether ED equals the oracle."""
        st = self.product(name)
        ed, route, agreement = pr.product_by_route(
            st["F"], st["E"], st["D"], st["L"], st["N_ids"], st["K_ids"])
        return ed, route, {"cross_route_agreement": agreement,
                           "matches_oracle": ed == st["oracle"]}
