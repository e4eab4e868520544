"""Batch front-end: build instances from descriptors, run the
verification suites, and emit deterministic JSON reports.

Exit codes: 0 all clauses pass; 1 a clause failed; 2 descriptor or
precondition error; 3 a cap was exceeded or a verdict came back unknown.
Each handler returns its report and its verdict (``report.fold``), and
``EXIT_CODES`` maps the verdict to 0, 1 or 3.

Each run makes one ``instances.Instance`` from the descriptor and the
caps, and every handler takes it, so the steps of ``suite`` build G, S,
L, F and each product once.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import fusion as fu
from . import instances as inst
from . import products as pr
from .fusion import FusionError, MorphismCapExceeded
from .locality import LocalityError, validate_locality
from .partial_subgroups import (verify_restriction_product,
                                verify_theorem_nk_normal,
                                verify_theorem_nk_subnormal)
from .permgroup import DEFAULT_GROUP_CAP, GroupError, SizeCapExceeded
from .report import PreconditionError, fold

EXIT_OK, EXIT_FAIL, EXIT_INPUT, EXIT_CAP = 0, 1, 2, 3
EXIT_CODES = {True: EXIT_OK, False: EXIT_FAIL, "unknown": EXIT_CAP}


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def _common() -> argparse.ArgumentParser:
    """The descriptor and the flags of every command, given to each leaf
    through ``parents=``."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("descriptor",
                        help="bundled instance name or JSON path")
    common.add_argument("--out", help="write the JSON report to this path")
    common.add_argument("--group-cap", type=_positive_int,
                        default=DEFAULT_GROUP_CAP,
                        help="largest order a group closure may reach "
                             "(default %(default)s)")
    common.add_argument("--morphism-cap", type=_positive_int,
                        default=fu.DEFAULT_MORPHISM_CAP,
                        help="most morphisms a fusion closure may hold "
                             "(default %(default)s)")
    common.add_argument("--json", action="store_true",
                        help="echo the report to stdout even when --out "
                             "is set")
    return common


def _word_len(sub: argparse.ArgumentParser):
    sub.add_argument("--max-word-len", type=_positive_int, default=None,
                     help="accepted and ignored: the locality validator "
                          "checks every word of the domain, from its pairs "
                          "and triples")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="locfusion",
        description="verification suites for localities and fusion systems")
    top = ap.add_subparsers(dest="command", required=True)
    common = [_common()]

    grp = top.add_parser("group").add_subparsers(dest="sub", required=True)
    grp.add_parser("info", parents=common)

    loc = top.add_parser("locality").add_subparsers(dest="sub", required=True)
    loc.add_parser("build", parents=common)
    _word_len(loc.add_parser("validate", parents=common))

    for name in ("theorem1", "theorem2", "restriction"):
        top.add_parser(name, parents=common)

    fus = top.add_parser("fusion").add_subparsers(dest="sub", required=True)
    fus.add_parser("build", parents=common)
    fus.add_parser("saturate-check", parents=common)

    for name in ("product-ed", "verify-ed"):
        top.add_parser(name, parents=common).add_argument(
            "--product", default=None,
            help="product name from the descriptor (default: all)")

    _word_len(top.add_parser("suite", parents=common))
    return ap


# -- command handlers --------------------------------------------------------
# Each takes the run's Instance and the parsed arguments.

def cmd_group_info(ctx, args):
    return {"suite": "group_info", "instance": ctx.d["name"],
            "degree": ctx.G.degree, "order": ctx.G.order, "p": ctx.d["p"],
            "sylow_order": ctx.S.order}, True


def cmd_locality_build(ctx, args):
    L = ctx.L
    return {"suite": "locality_build", "instance": ctx.d["name"],
            "carrier_size": L.n, "s_order": len(L.s_ids),
            "delta_size": len(L.delta), "p": L.p}, True


def cmd_locality_validate(ctx, args):
    rep = validate_locality(ctx.L)
    return {"suite": "locality_validate", "instance": ctx.d["name"],
            **rep.to_json()}, rep.ok


def _theorem_reports(ctx, which: str):
    d = ctx.d
    if which not in d:
        raise inst.DescriptorError(f"descriptor has no {which!r} section")
    cfg = d[which]
    L = ctx.L
    N = inst.resolve_ids(L, inst.named_subgroup(d, L.realization, cfg["n"]))
    verify = (verify_theorem_nk_normal if which == "theorem1"
              else verify_theorem_nk_subnormal)
    reports = []
    for kname in cfg["k"]:
        K = inst.k_choice(d, L, kname)
        rep = verify(L, N, K, instance=f"{d['name']}:{kname}")
        reports.append(rep.to_json())
    ok = fold(r["ok"] for r in reports)
    return {"suite": which, "instance": d["name"],
            "ok": ok, "reports": reports}, ok


def cmd_theorem1(ctx, args):
    return _theorem_reports(ctx, "theorem1")


def cmd_theorem2(ctx, args):
    return _theorem_reports(ctx, "theorem2")


def cmd_restriction(ctx, args):
    d = ctx.d
    if "restriction" not in d:
        raise inst.DescriptorError("descriptor has no 'restriction' section")
    cfg = d["restriction"]
    L = ctx.L
    G = L.realization
    sub_delta = inst.delta_of({**d, "delta": cfg["delta"]}, G, ctx.S)
    if any(not P.eset <= ctx.S.eset for P in sub_delta):
        raise LocalityError("delta member is not a subgroup of S")
    delta_ids = [frozenset(L.id_of[g] for g in P.eset) for P in sub_delta]
    N = inst.resolve_ids(L, inst.named_subgroup(d, G, cfg["n"]))
    K = inst.k_choice(d, L, cfg["k"])
    rep = verify_restriction_product(L, delta_ids, N, K, instance=d["name"])
    return rep.to_json() | {"suite": "restriction"}, rep.ok


def cmd_fusion_build(ctx, args):
    F = fu.fusion_of_locality(ctx.L)
    return {"suite": "fusion_build", "instance": ctx.d["name"],
            **F.to_json()}, True


def cmd_fusion_saturate(ctx, args):
    sat = fu.is_saturated(ctx.F)
    return {"suite": "saturate_check", "instance": ctx.d["name"],
            "saturated": sat, "morphisms": len(ctx.F.maps)}, sat


def _products_of(d, args):
    names = ([args.product] if getattr(args, "product", None)
             else sorted(d.get("fusion_products", {})))
    if not names:
        raise inst.DescriptorError("descriptor has no fusion products")
    return names


def cmd_product_ed(ctx, args):
    out, verdicts = [], []
    for name in _products_of(ctx.d, args):
        ed, route, checks = ctx.ed(name)
        out.append({"instance": ctx.product(name)["name"], "route": route,
                    **checks, "fusion": ed.to_json()})
        verdicts.append(fold(checks.values()))
    return {"suite": "product_ed", "instance": ctx.d["name"],
            "products": out}, fold(verdicts)


def cmd_verify_ed(ctx, args):
    out, verdicts = [], []
    for name in _products_of(ctx.d, args):
        st = ctx.product(name)
        ed, route, checks = ctx.ed(name)
        comparisons = (ctx.subnormal_subsystems
                       if st["enumerate_minimality"] else None)
        rep = pr.verify_ed(st["F"], st["E"], st["D"], ed,
                           instance=st["name"], route=route,
                           comparisons=comparisons)
        out.append(pr.ed_report_json(rep) | checks)
        verdicts.append(fold([*rep.clauses.values(), *checks.values()]))
    return {"suite": "verify_ed", "instance": ctx.d["name"],
            "products": out}, fold(verdicts)


def cmd_suite(ctx, args):
    d = ctx.d
    steps = [cmd_locality_validate, cmd_fusion_saturate]
    if "theorem1" in d:
        steps.append(cmd_theorem1)
    if "theorem2" in d:
        steps.append(cmd_theorem2)
    if "restriction" in d:
        steps.append(cmd_restriction)
    if d.get("fusion_products"):
        steps += [cmd_product_ed, cmd_verify_ed]
    reports, verdicts = zip(*(fn(ctx, args) for fn in steps))
    verdict = fold(verdicts)
    return {"suite": "suite", "instance": d["name"],
            "ok": verdict is True, "reports": list(reports)}, verdict


HANDLERS = {
    ("group", "info"): cmd_group_info,
    ("locality", "build"): cmd_locality_build,
    ("locality", "validate"): cmd_locality_validate,
    ("theorem1", None): cmd_theorem1,
    ("theorem2", None): cmd_theorem2,
    ("restriction", None): cmd_restriction,
    ("fusion", "build"): cmd_fusion_build,
    ("fusion", "saturate-check"): cmd_fusion_saturate,
    ("product-ed", None): cmd_product_ed,
    ("verify-ed", None): cmd_verify_ed,
    ("suite", None): cmd_suite,
}


def _emit(report: dict, args) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        if args.json:
            sys.stdout.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _verdict(args)
    except OSError as e:  # --out or the descriptor file: an input error
        args.out = None
        _emit({"error": str(e), "kind": type(e).__name__}, args)
        return EXIT_INPUT


def _verdict(args) -> int:
    handler = HANDLERS[(args.command, getattr(args, "sub", None))]
    try:
        ctx = inst.Instance(inst.load_descriptor(args.descriptor),
                            group_cap=args.group_cap,
                            morphism_cap=args.morphism_cap)
        report, verdict = handler(ctx, args)
    except (SizeCapExceeded, MorphismCapExceeded) as e:
        _emit({"error": str(e), "kind": type(e).__name__}, args)
        return EXIT_CAP
    except (inst.DescriptorError, LocalityError, PreconditionError,
            GroupError, FusionError) as e:
        _emit({"error": str(e), "kind": type(e).__name__}, args)
        return EXIT_INPUT
    if report.get("ok") is None and verdict is True:
        report["ok"] = True
    _emit(report, args)
    return EXIT_CODES[verdict]


if __name__ == "__main__":
    sys.exit(main())
