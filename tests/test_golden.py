"""Golden gate: the ``suite`` report bytes of every bundled descriptor.

The digests were recorded from the element-wise implementation before
the S-indexed kernel replaced it; any change to a verdict, a morphism
list or the JSON layout shows here.
"""

import hashlib

import pytest

from locfusion.cli import main

SUITE_SHA256 = {
    "instance-a":
        "55739de54c3574dacbb53a3daa0b86dadc74c76cdaa2461cde6ba961bc39bf5e",
    "instance-b":
        "1415466e75091d0b1b74302fea9052ada1ba23d2eafd7a2c0bf5170d39d825f1",
    "product-24":
        "f64f018af8f04257df621bc4cc8f265f85e4a37478977c664d2299f1b6e24936",
    "product-48":
        "ff5f41944eb64227444b00a5f12e57deb127bf7628391b5440d5e2011feddb94",
    "group-8":
        "1ca5aa9c7bbbb9a847edf976db2baa6716f14cda0cca3dfb0bed20a123f10c89",
    "group-60":
        "00f46b388da4f7e495f0d3902a49c55bdf885c0da9d9b2557c9c8195506570ef",
}


@pytest.mark.parametrize("name", sorted(SUITE_SHA256))
def test_suite_report_bytes_unchanged(name, tmp_path):
    out = tmp_path / f"{name}.json"
    assert main(["suite", name, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SUITE_SHA256[name]
