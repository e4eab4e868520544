"""Golden gate: the ``suite`` report bytes of every bundled descriptor,
the ``theorem1`` / ``restriction`` report bytes on the S6 benchmark
descriptor, and the bytes of the standalone product, locality and fusion
commands.

The suite digests were recorded from the element-wise implementation
before the S-indexed kernel replaced it, the S6 digests from the
word-map implementation of S_w before the preimage walk replaced it,
the first standalone digests from the handlers that rebuilt G, S, F and
L for every command before the per-run ``Instance`` context shared them,
and the rest of the command table with its exit codes before the
automorphism groups and subgroup indexes were rebuilt; any change to a
verdict, an exit code, a morphism list or the JSON layout shows here.
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


# (command line, exit code, SHA-256 of stdout): all eleven commands on
# the six bundled descriptors, recorded before Aut_F(P) became a
# permutation group and each subgroup got one index on its parent group,
# and the single-product run.  An exit code of 2 is a missing section of
# the descriptor; its report is the error message.
COMMANDS = [
    (["group", "info", "instance-a"], 0,
     "a213ea441b304fd2cf7702d8f74843afad06ca78392fb9252a35849de985483b"),
    (["locality", "build", "instance-a"], 0,
     "b57aad48af76a793f09d137cfbd17b74c288761fa6bd09594ca798a475b63242"),
    (["locality", "validate", "instance-a"], 0,
     "b9848b95c967ef68d2986a0dd0c46c2833b436041de0a2fc309f502dc050379d"),
    (["theorem1", "instance-a"], 2,
     "dbeb9029ccebc48bec965fdb12c844b9f668fbd95539e5890628755d03550010"),
    (["theorem2", "instance-a"], 2,
     "7c6201438fbbf7f6da3b12f5ebf529701932ab9819393830738cff9e41471e90"),
    (["restriction", "instance-a"], 2,
     "f8b183e18ddd92b4b0a3109075e66ac08e3bf3c0254cfada5b40cfec3f2f60d6"),
    (["fusion", "build", "instance-a"], 0,
     "4699eec7385bc265f790d821c1e38a4dd3aa95b570fe3dccf72fcba891120b69"),
    (["fusion", "saturate-check", "instance-a"], 0,
     "9f33bb1ade3630e4c6941acf357b5ae9dd2417b095c87678e84ca6985e15219c"),
    (["product-ed", "instance-a"], 2,
     "fda0cc29d760ec0c4d5cb9c1881bb1b30aa5963bbfec50b4ba17293cf9978c19"),
    (["verify-ed", "instance-a"], 2,
     "fda0cc29d760ec0c4d5cb9c1881bb1b30aa5963bbfec50b4ba17293cf9978c19"),
    (["suite", "instance-a"], 0,
     "55739de54c3574dacbb53a3daa0b86dadc74c76cdaa2461cde6ba961bc39bf5e"),
    (["group", "info", "instance-b"], 0,
     "7af0f898c8f77ddec93754d73383ebddc55b04ce327e7fa173e6f34de1d4b86a"),
    (["locality", "build", "instance-b"], 0,
     "c119f1c9168cf771a85ac8c51a225d786de66c68ec4b4d8508da9bb63d28b229"),
    (["locality", "validate", "instance-b"], 0,
     "25428e5ee87c3376a7a0e8eb8d66bafa0e46ed545207f1bc1181719b11e472f5"),
    (["theorem1", "instance-b"], 0,
     "b92475e8d6621d6364b2019fe227429e446f877056829ff5e201c879eb96f16d"),
    (["theorem2", "instance-b"], 0,
     "820d909e0c431eebb4393b8857e2fe69f7b33cd07a7de4805b081d4c239a0e28"),
    (["restriction", "instance-b"], 0,
     "97c0bc5def194557b71fb378a423377777bb74275448d1ecb502df6be379347c"),
    (["fusion", "build", "instance-b"], 0,
     "40309b870944c00295092bdb08ef137fffe677ceda4a217d0c1b5bb783fa455f"),
    (["fusion", "saturate-check", "instance-b"], 0,
     "81135ee1d324b8fb90abafe387b397efe8c42844cc55a7829a05badce2737e1a"),
    (["product-ed", "instance-b"], 2,
     "fda0cc29d760ec0c4d5cb9c1881bb1b30aa5963bbfec50b4ba17293cf9978c19"),
    (["verify-ed", "instance-b"], 2,
     "fda0cc29d760ec0c4d5cb9c1881bb1b30aa5963bbfec50b4ba17293cf9978c19"),
    (["suite", "instance-b"], 0,
     "1415466e75091d0b1b74302fea9052ada1ba23d2eafd7a2c0bf5170d39d825f1"),
    (["group", "info", "product-24"], 0,
     "c437dc954ded1efd41b3b21ecb16ab3a869491522e48cc9fc792ef43b0304753"),
    (["locality", "build", "product-24"], 0,
     "81ff6cc97a2a32ea91fd91de5c90368d1b75339dbc38eed4178345b2cade3697"),
    (["locality", "validate", "product-24"], 0,
     "917f8ddd38f8a73e81b49957f363fce9debb72f20b64d08d9419c9c207318a27"),
    (["theorem1", "product-24"], 2,
     "dbeb9029ccebc48bec965fdb12c844b9f668fbd95539e5890628755d03550010"),
    (["theorem2", "product-24"], 2,
     "7c6201438fbbf7f6da3b12f5ebf529701932ab9819393830738cff9e41471e90"),
    (["restriction", "product-24"], 2,
     "f8b183e18ddd92b4b0a3109075e66ac08e3bf3c0254cfada5b40cfec3f2f60d6"),
    (["fusion", "build", "product-24"], 0,
     "8f38807b4d07ea06c158c6a79c4b68df64da4ae1c644bd689350d314804cd3b5"),
    (["fusion", "saturate-check", "product-24"], 0,
     "0ac349dd2cf642053a60620b6dd37b3180642d909fe344fc266e359736795f90"),
    (["product-ed", "product-24"], 0,
     "4c26e01a559874c3dc1ccb1c978bb5c763a9a9607cb164da802dccf29733bf39"),
    (["verify-ed", "product-24"], 0,
     "880416818d8c29b28d5ad14301a3f4551101565f2dbb069ea51c36f288b2fdae"),
    (["suite", "product-24"], 0,
     "f64f018af8f04257df621bc4cc8f265f85e4a37478977c664d2299f1b6e24936"),
    (["group", "info", "product-48"], 0,
     "fad563239dd0164eda8e1a73a20b755acfd6dd74aae70731fc23f08174b07c8a"),
    (["locality", "build", "product-48"], 0,
     "eeda3663ee5654f4d781e576593a6c84a8eb6adc768361e4d5df5e2ff7888056"),
    (["locality", "validate", "product-48"], 0,
     "e2a23f0acf8f74a450461e94866af4b9e07592f987e762483d051a9766edca2f"),
    (["theorem1", "product-48"], 2,
     "dbeb9029ccebc48bec965fdb12c844b9f668fbd95539e5890628755d03550010"),
    (["theorem2", "product-48"], 2,
     "7c6201438fbbf7f6da3b12f5ebf529701932ab9819393830738cff9e41471e90"),
    (["restriction", "product-48"], 2,
     "f8b183e18ddd92b4b0a3109075e66ac08e3bf3c0254cfada5b40cfec3f2f60d6"),
    (["fusion", "build", "product-48"], 0,
     "599e2249388995b8d60c614d3c502953f17e33a0ca9611733183153f0ff69a15"),
    (["fusion", "saturate-check", "product-48"], 0,
     "83b1fa4008417b98a5baa6a96b7a1c16ab785a9b847e5926dea825c30042c01b"),
    (["product-ed", "product-48"], 0,
     "e0db6108e59ed10eabecf1e05dd67f2196252fb79f038ab2123982d76d49bffd"),
    (["verify-ed", "product-48"], 0,
     "71bfdb44abf3f886e57203b669a995d8d4fbf12f9c2f813a26efb21fe25f9f58"),
    (["suite", "product-48"], 0,
     "ff5f41944eb64227444b00a5f12e57deb127bf7628391b5440d5e2011feddb94"),
    (["group", "info", "group-8"], 0,
     "87d0e12b23b0be774e5f432223d257d47c2ce0acb57b6e3d0d48f53dc4be924d"),
    (["locality", "build", "group-8"], 0,
     "016362b854f95904bf26886c6afa6545cd118421d598335a664448ab96d82205"),
    (["locality", "validate", "group-8"], 0,
     "7a632762bd8dbdff55ec91783e6faa9a0bc6f22a7db7a1cb350b7c00cf9d02fe"),
    (["theorem1", "group-8"], 2,
     "dbeb9029ccebc48bec965fdb12c844b9f668fbd95539e5890628755d03550010"),
    (["theorem2", "group-8"], 2,
     "7c6201438fbbf7f6da3b12f5ebf529701932ab9819393830738cff9e41471e90"),
    (["restriction", "group-8"], 2,
     "f8b183e18ddd92b4b0a3109075e66ac08e3bf3c0254cfada5b40cfec3f2f60d6"),
    (["fusion", "build", "group-8"], 0,
     "0107f7ae162c4980b1c61bca45c1a5c757619ee91fe0a4e5474c169f35686f00"),
    (["fusion", "saturate-check", "group-8"], 0,
     "1cf8346179ca862e4ba466806fd6b335622b4cc57b842008635d91af385d047c"),
    (["product-ed", "group-8"], 2,
     "fda0cc29d760ec0c4d5cb9c1881bb1b30aa5963bbfec50b4ba17293cf9978c19"),
    (["verify-ed", "group-8"], 2,
     "fda0cc29d760ec0c4d5cb9c1881bb1b30aa5963bbfec50b4ba17293cf9978c19"),
    (["suite", "group-8"], 0,
     "1ca5aa9c7bbbb9a847edf976db2baa6716f14cda0cca3dfb0bed20a123f10c89"),
    (["group", "info", "group-60"], 0,
     "0c7b7b5bbb2acb5ace77154d18bbc84d8e861fbff0125908fa21c6f5112a1f9d"),
    (["locality", "build", "group-60"], 0,
     "7c7453536fb1e10346fe347dc8a5fc5fe5f05cfd63369ad24ebcf634cbd0fe08"),
    (["locality", "validate", "group-60"], 0,
     "d0b0890c39d154848b94ad7a41b9dceb2da680868f18338ff7261d21de436bf4"),
    (["theorem1", "group-60"], 2,
     "dbeb9029ccebc48bec965fdb12c844b9f668fbd95539e5890628755d03550010"),
    (["theorem2", "group-60"], 2,
     "7c6201438fbbf7f6da3b12f5ebf529701932ab9819393830738cff9e41471e90"),
    (["restriction", "group-60"], 2,
     "f8b183e18ddd92b4b0a3109075e66ac08e3bf3c0254cfada5b40cfec3f2f60d6"),
    (["fusion", "build", "group-60"], 0,
     "2d5aff18c4713fd490e5b6efa3d16fbe78495a87f48551d524165a8657f02222"),
    (["fusion", "saturate-check", "group-60"], 0,
     "2656bc267f5c945e7eb0feb8139de081bf893b4ce73a50813f741bc85f8a5742"),
    (["product-ed", "group-60"], 2,
     "fda0cc29d760ec0c4d5cb9c1881bb1b30aa5963bbfec50b4ba17293cf9978c19"),
    (["verify-ed", "group-60"], 2,
     "fda0cc29d760ec0c4d5cb9c1881bb1b30aa5963bbfec50b4ba17293cf9978c19"),
    (["suite", "group-60"], 0,
     "00f46b388da4f7e495f0d3902a49c55bdf885c0da9d9b2557c9c8195506570ef"),
    (["verify-ed", "product-24", "--product", "subn"], 0,
     "102deb4c827b49561c48f6ce3bc83629d8524506ad5e594be5b26599782114e8"),
]


@pytest.mark.parametrize("argv,code,digest", COMMANDS,
                         ids=[" ".join(a) for a, _, _ in COMMANDS])
def test_command_report_bytes_unchanged(argv, code, digest, capsys):
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
