"""Span wrappers for the traced run, and the per-layer metrics built from them.

A layer is a module of ``src/locfusion``.  The traced verdict process
wraps the functions below, each call records a span (name, parent span,
start, end, optional count), and the parent process turns the spans of
one pass into per-layer metrics.  The untraced run imports nothing from
this file.

Wrappers replace the function object under every name that refers to it
in any ``locfusion`` module, so a name bound with ``from .x import y``
is traced where the caller looks it up.
"""

from __future__ import annotations

import sys
import time

# (module, attribute, span name, count of the result or None).
# Span names are "<layer>.<stage>"; `<stage>_s` and `<stage>_self_s`
# become metrics for every name in TIMED below.
TARGETS = [
    ("permgroup", "FiniteGroup.__init__", "permgroup.group_closure", None),
    ("permgroup", "sylow_subgroup", "permgroup.sylow", None),
    ("permgroup", "all_subgroups", "permgroup.lattice", len),
    ("permgroup", "is_characteristic_p", "permgroup.char_p", None),
    ("locality", "locality_from_group", "locality.build",
     lambda L: [L.n, len(L.prod), len(L.delta)]),
    ("locality", "_check_delta_closures", "locality.delta_check", None),
    ("locality", "_check_delta_of_locality", "locality.delta_check", None),
    ("locality", "validate_locality", "locality.validate", None),
    ("locality", "_word_states", "locality.word_explore",
     lambda res: len(res[0])),
    ("locality", "is_linking_locality", "locality.linking_cert", None),
    ("partial_subgroups", "verify_theorem_nk_normal",
     "partial_subgroups.theorem1", None),
    ("partial_subgroups", "verify_theorem_nk_subnormal",
     "partial_subgroups.theorem2", None),
    ("partial_subgroups", "verify_restriction_product",
     "partial_subgroups.restriction", None),
    ("partial_subgroups", "is_partial_normal",
     "partial_subgroups.is_partial_normal", None),
    ("partial_subgroups", "is_partial_subgroup",
     "partial_subgroups.is_partial_subgroup", None),
    ("partial_subgroups", "is_subnormal", "partial_subgroups.is_subnormal",
     None),
    ("fusion", "subgroup_lattice", "fusion.subgroup_lattice", None),
    ("fusion", "fusion_of_group", "fusion.of_group",
     lambda F: len(F.maps)),
    ("fusion", "is_saturated", "fusion.saturation", None),
    ("fusion", "close", "fusion.close", None),
    ("fusion", "fusion_of_locality", "fusion.of_locality", None),
    ("fusion", "subcentric_subgroups", "fusion.subcentric", None),
    ("fusion", "centric_radicals", "fusion.centric_radicals", None),
    ("fusion", "is_normal_subsystem", "fusion.normal_subsystem", None),
    ("fusion", "is_subnormal_subsystem", "fusion.subnormal_chain", None),
    ("products", "product_ED", "products.product_ED", None),
    ("products", "product_ed_via_locality", "products.via_locality", None),
    ("products", "verify_ed", "products.verify_ed", None),
    ("products", "enumerate_subnormal_subsystems",
     "products.enumerate_subnormal", len),
    ("instances", "load_descriptor", "instances.load", None),
    ("instances", "group_of", "instances.group_of", len),
    ("instances", "sylow_of", "instances.sylow_of", len),
    ("instances", "build_locality", "instances.build_locality", None),
    ("instances", "product_setup", "instances.product_setup", None),
    ("cli", "_emit", "cli.emit", None),
]

TIMED = [
    "permgroup.group_closure", "permgroup.sylow", "permgroup.lattice",
    "permgroup.char_p",
    "locality.build", "locality.delta_check", "locality.validate",
    "locality.linking_cert",
    "partial_subgroups.theorem1", "partial_subgroups.theorem2",
    "partial_subgroups.restriction", "partial_subgroups.is_partial_normal",
    "partial_subgroups.is_partial_subgroup", "partial_subgroups.is_subnormal",
    "fusion.of_group", "fusion.saturation", "fusion.close",
    "fusion.of_locality", "fusion.subcentric", "fusion.centric_radicals",
    "fusion.normal_subsystem", "fusion.subnormal_chain",
    "products.product_ED", "products.via_locality", "products.verify_ed",
    "products.enumerate_subnormal",
    "instances.load", "instances.product_setup",
    "cli.emit",
]

# name -> unit, for the per-layer metrics that are not `_s` / `_self_s`.
COUNTS = {
    "permgroup.lattice_size": "count",
    "permgroup.all_subgroups_calls": "count",
    "locality.build_calls": "count",
    "locality.word_states": "count",
    "locality.carrier_size": "count",
    "locality.product_pairs": "count",
    "partial_subgroups.is_partial_normal_calls": "count",
    "partial_subgroups.is_partial_subgroup_calls": "count",
    "fusion.morphisms": "count",
    "fusion.close_calls": "count",
    "fusion.lattice_cache_hit_ratio": "ratio",
    "products.via_locality_calls": "count",
    "products.subsystems_found": "count",
    "instances.product_setup_calls": "count",
    "instances.build_locality_calls": "count",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = {}
    for name in TIMED:
        out[name + "_s"] = "s"
        out[name + "_self_s"] = "s"
    out.update(COUNTS)
    out["cli.report_bytes"] = "bytes"
    out["trace.overhead_s"] = "s"
    return out


# -- in the traced verdict process --------------------------------------------

def install(spans: list) -> list[str]:
    """Wrap every target; spans are appended to ``spans`` as
    [name, parent index, start, end, count].  Returns the targets that
    no longer exist, so a rename in the program shows in the trace."""
    import locfusion.cli  # noqa: F401  (binds every module)
    mods = {k: v for k, v in sys.modules.items()
            if k.startswith("locfusion.") and v is not None}
    stack: list[int] = []
    clock = time.perf_counter
    missing = []

    def wrap(fn, name, count):
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                res = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if count is not None:
                rec[4] = count(res)
            return res
        return traced

    for modname, attr, name, count in TARGETS:
        mod = mods.get("locfusion." + modname)
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        fn = getattr(owner, leaf, None) if owner is not None else None
        if fn is None:
            missing.append(f"{modname}.{attr}")
            continue
        w = wrap(fn, name, count)
        if owner_name:
            setattr(owner, leaf, w)
            continue
        for m in mods.values():
            for key, val in list(vars(m).items()):
                if val is fn:
                    setattr(m, key, w)
    return missing


# -- in the parent: spans of one pass -> per-layer metrics --------------------

def pass_metrics(verdict_spans: list[list], report_bytes: int) -> dict:
    """Per-layer metrics of one pass from the span lists of its verdicts."""
    incl = dict.fromkeys(TIMED, 0.0)
    self_t = dict.fromkeys(TIMED, 0.0)
    calls: dict[str, int] = {}
    c = {"lattice_size": 0, "word_states": 0, "carrier": 0, "pairs": 0,
         "morphisms": 0, "subsystems": 0, "lattice_calls": 0,
         "lattice_hits": 0}
    for spans in verdict_spans:
        child_time = [0.0] * len(spans)
        has_lattice_below = [False] * len(spans)
        for i in range(len(spans) - 1, -1, -1):
            name, parent, start, end, _ = spans[i]
            if parent >= 0:
                child_time[parent] += end - start
                if name == "permgroup.lattice" or has_lattice_below[i]:
                    has_lattice_below[parent] = True
        for i, (name, parent, start, end, count) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            if name in incl:
                self_t[name] += (end - start) - child_time[i]
                if not _under(spans, parent, name):
                    incl[name] += end - start
            if name == "fusion.subgroup_lattice":
                c["lattice_calls"] += 1
                c["lattice_hits"] += not has_lattice_below[i]
            if count is None:
                continue
            if name == "permgroup.lattice":
                c["lattice_size"] = max(c["lattice_size"], count)
            elif name == "locality.word_explore":
                c["word_states"] += count
            elif name == "locality.build":
                c["carrier"] = max(c["carrier"], count[0])
                c["pairs"] = max(c["pairs"], count[1])
            elif name == "fusion.of_group":
                c["morphisms"] = max(c["morphisms"], count)
            elif name == "products.enumerate_subnormal":
                c["subsystems"] += count
    out = {}
    for name in TIMED:
        out[name + "_s"] = incl[name]
        out[name + "_self_s"] = self_t[name]
    n = calls.get
    out.update({
        "permgroup.lattice_size": c["lattice_size"],
        "permgroup.all_subgroups_calls": n("permgroup.lattice", 0),
        "locality.build_calls": n("locality.build", 0),
        "locality.word_states": c["word_states"],
        "locality.carrier_size": c["carrier"],
        "locality.product_pairs": c["pairs"],
        "partial_subgroups.is_partial_normal_calls":
            n("partial_subgroups.is_partial_normal", 0),
        "partial_subgroups.is_partial_subgroup_calls":
            n("partial_subgroups.is_partial_subgroup", 0),
        "fusion.morphisms": c["morphisms"],
        "fusion.close_calls": n("fusion.close", 0),
        "fusion.lattice_cache_hit_ratio":
            (c["lattice_hits"] / c["lattice_calls"]
             if c["lattice_calls"] else 0.0),
        "products.via_locality_calls": n("products.via_locality", 0),
        "products.subsystems_found": c["subsystems"],
        "instances.product_setup_calls": n("instances.product_setup", 0),
        "instances.build_locality_calls": n("instances.build_locality", 0),
        "cli.report_bytes": report_bytes,
    })
    return out


def _under(spans: list, i: int, name: str) -> bool:
    """True when span i or one of its ancestors is called ``name``."""
    while i >= 0:
        if spans[i][0] == name:
            return True
        i = spans[i][1]
    return False


def verdict_counts(spans: list) -> dict:
    """Counts of one verdict that do not change under relabelling."""
    out = {"group_order": 0, "sylow_order": 0, "lattice_size": 0,
           "carrier_size": 0, "product_pairs": 0, "delta_size": 0,
           "morphisms": 0}
    for name, _parent, _start, _end, count in spans:
        if count is None:
            continue
        if name == "instances.group_of":
            out["group_order"] = max(out["group_order"], count)
        elif name == "instances.sylow_of":
            out["sylow_order"] = max(out["sylow_order"], count)
        elif name == "permgroup.lattice":
            out["lattice_size"] = max(out["lattice_size"], count)
        elif name == "locality.build":
            out["carrier_size"] = max(out["carrier_size"], count[0])
            out["product_pairs"] = max(out["product_pairs"], count[1])
            out["delta_size"] = max(out["delta_size"], count[2])
        elif name == "fusion.of_group":
            out["morphisms"] = max(out["morphisms"], count)
    return out
