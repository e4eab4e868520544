"""Golden gate: the ``suite`` report bytes of every bundled descriptor,
the ``theorem1`` / ``restriction`` report bytes on the S6 benchmark
descriptor, and the bytes of the standalone product, locality and fusion
commands.

The suite digests were recorded from the element-wise implementation
before the S-indexed kernel replaced it, the S6 digests from the
word-map implementation of S_w before the preimage walk replaced it,
and the standalone digests from the handlers that rebuilt G, S, F and L
for every command before the per-run ``Instance`` context shared them;
any change to a verdict, a morphism list or the JSON layout shows here.
"""

import hashlib
from pathlib import Path

import pytest

from locfusion.cli import main

S6_DESCRIPTOR = Path(__file__).resolve().parents[1] / "perfbench" / \
    "instances" / "s6.json"

S6_SHA256 = {
    "theorem1":
        "a2789dd9a5a61d5b8098496ad4a57f5c92a273dcb6708c63ab0c8dd244c5b547",
    "restriction":
        "6fd7998a05bfd339dea85d72a27cd8b5249c6011dd35d82b07b50dc9461745d6",
}

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


@pytest.mark.parametrize("command", sorted(S6_SHA256))
def test_s6_report_bytes_unchanged(command, tmp_path):
    out = tmp_path / f"{command}.json"
    assert main([command, str(S6_DESCRIPTOR), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == S6_SHA256[command]


# (command line, SHA-256 of the report); every one exits 0.
COMMAND_SHA256 = [
    (["product-ed", "product-24"],
     "4c26e01a559874c3dc1ccb1c978bb5c763a9a9607cb164da802dccf29733bf39"),
    (["product-ed", "product-48"],
     "e0db6108e59ed10eabecf1e05dd67f2196252fb79f038ab2123982d76d49bffd"),
    (["verify-ed", "product-24"],
     "880416818d8c29b28d5ad14301a3f4551101565f2dbb069ea51c36f288b2fdae"),
    (["verify-ed", "product-48"],
     "71bfdb44abf3f886e57203b669a995d8d4fbf12f9c2f813a26efb21fe25f9f58"),
    (["verify-ed", "product-24", "--product", "subn"],
     "102deb4c827b49561c48f6ce3bc83629d8524506ad5e594be5b26599782114e8"),
    (["locality", "build", "instance-b"],
     "c119f1c9168cf771a85ac8c51a225d786de66c68ec4b4d8508da9bb63d28b229"),
    (["fusion", "build", "instance-b"],
     "40309b870944c00295092bdb08ef137fffe677ceda4a217d0c1b5bb783fa455f"),
]


@pytest.mark.parametrize("argv,digest", COMMAND_SHA256,
                         ids=[" ".join(a) for a, _ in COMMAND_SHA256])
def test_command_report_bytes_unchanged(argv, digest, tmp_path):
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
