"""Data built from the bundled descriptors, shared by several test
modules: the shipped groups with their primes, (L, H, T) triples for
the normalizer-of-strongly-closed-T fusion identity, and relabelled
abstract copies of a locality."""

from locfusion.instances import (build_locality, group_of, load_descriptor,
                                 named_subgroup, resolve_ids)
from locfusion.locality import locality_from_descriptor, locality_to_descriptor


def bundled_groups():
    """The shipped test groups (orders 8, 24, 48, 60, 120) with their p."""
    out = []
    for name in ("group-8", "instance-a", "product-48", "group-60",
                 "instance-b"):
        d = load_descriptor(name)
        out.append((d["name"], group_of(d), d["p"]))
    return out


def net_triples():
    """Bundled (L, H, T) data for the normalizer-of-strongly-closed-T
    fusion identity: H a partial subgroup given by carrier ids, T by
    element labels."""
    out = []
    da = load_descriptor("instance-a")
    La = build_locality(da)
    Ta = named_subgroup(da, La.realization,
                        {"generators": [[2, 1, 4, 3], [3, 4, 1, 2]]})
    out.append(("instance-a:carrier", La, frozenset(range(La.n)),
                frozenset(Ta.eset)))
    db = load_descriptor("instance-b")
    Lb = build_locality(db)
    Tb = named_subgroup(db, Lb.realization,
                        {"generators": [[2, 1, 4, 3, 5], [3, 4, 1, 2, 5]]})
    alt = resolve_ids(Lb, named_subgroup(db, Lb.realization, "alt"))
    out.append(("instance-b:carrier", Lb, frozenset(range(Lb.n)),
                frozenset(Tb.eset)))
    out.append(("instance-b:alt", Lb, alt, frozenset(Tb.eset)))
    return out


def relabelled_copy(L):
    """An abstract copy of L with every id i renamed n - 1 - i.  The
    identity of a realized L is id 0, the least, so in the copy it is
    the largest id of S."""
    d = locality_to_descriptor(L)
    n = d["carrier"]

    def new(xs):
        return [n - 1 - x for x in xs]
    return locality_from_descriptor({
        "carrier": n, "identity": n - 1 - d["identity"],
        "inverse": new(reversed(d["inverse"])),
        "products": [new(t) for t in d["products"]],
        "S": new(d["S"]), "p": d["p"],
        "delta": [new(P) for P in d["delta"]]})
