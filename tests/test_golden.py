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
Every digest was re-recorded once when the ``"seed"`` key left the
reports, after checking that each output differed from the one before
by that key alone.
"""

import hashlib
import json
from pathlib import Path

import pytest

from locfusion.cli import main
from locfusion.instances import load_descriptor

S6_DESCRIPTOR = Path(__file__).resolve().parents[1] / "perfbench" / \
    "instances" / "s6.json"

BENCH_INSTANCES = S6_DESCRIPTOR.parent

S6_SHA256 = {
    "theorem1":
        "54b5e202f995265a75dace0756d44ec103d901d8854bb64c3e233bbb62995bcd",
    "restriction":
        "006531d689e6f6fa98d164c291b6b24a1fac214bdbb8a93ac548221997e40861",
}

SUITE_SHA256 = {
    "instance-a":
        "f9a31ff6e155b780b985c7872170be75459cb967dc656a79e78860a12d96c390",
    "instance-b":
        "c86537c23b221e5e8847f51cc5e83656fc70a088c65eb7a5f9f174051072ae7d",
    "product-24":
        "9133b02607be1f5a6ade7cf04c8e8a060f51bbcde3915f6ef4bc4bb2eada065b",
    "product-48":
        "759a4898a736d047ec5733b7f2c0e5385aac716f0a1cf20353b1ba9bec52e311",
    "group-8":
        "70147d7901ca8f8e28f8eb6c052c3199d2a9f92b85b352928e9f280dea6d4387",
    "group-60":
        "599722ffa9258f32c4899c512caf03caa44b4f42fef26b643dad7edeab5f3cc7",
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
     "6298e62382b4a72c3496cb2a1285be2edb6fc6c5b51ef35bdcdf4ad2f0549002"),
    (["locality", "build", "instance-a"], 0,
     "d3f09aec02e51ed3d456363a81bc6d5b29256305c3a16e30ab93c79af8bd6cc9"),
    (["locality", "validate", "instance-a"], 0,
     "36f6b20f1f5568dc9d5059bcbcf5b4c673b52a102fe2e022ff3f9b47a32cbb24"),
    (["theorem1", "instance-a"], 2,
     "3aea1e4a47b1a124c4bfff2bb57c87d3791191b26fa145828844580bae0bed8e"),
    (["theorem2", "instance-a"], 2,
     "b7abb58c5128c4b78ad3920042dcb8e033d96c3e88961b917cf0dcd6fb214a68"),
    (["restriction", "instance-a"], 2,
     "e7499cfb466031dbbc9e2b26c262941538a3c499d01fa6fcab8dd1fff38541bc"),
    (["fusion", "build", "instance-a"], 0,
     "cc8d0df272b29eceb24b0721166eafa394a3b67105e50c5aed96013576fd1e21"),
    (["fusion", "saturate-check", "instance-a"], 0,
     "e06b6bfa04ec255a35b76122dbc87463c6c94dd9870e756c6784df78b753ea27"),
    (["product-ed", "instance-a"], 2,
     "8bf2e51a7f48d5ffcb8438fb05cf7ab5c9e5cfc4000f6f5f1a3edae0493e88b1"),
    (["verify-ed", "instance-a"], 2,
     "8bf2e51a7f48d5ffcb8438fb05cf7ab5c9e5cfc4000f6f5f1a3edae0493e88b1"),
    (["suite", "instance-a"], 0,
     "f9a31ff6e155b780b985c7872170be75459cb967dc656a79e78860a12d96c390"),
    (["group", "info", "instance-b"], 0,
     "2c733e9296a4c69e4d4c91fbeab6c94b6cdfdc3c9cb78eba7dd952bce932eda9"),
    (["locality", "build", "instance-b"], 0,
     "d31f42e1556b6f317ea29d70e70e5c51eeec4073ef5a0cb30009b182ee597edf"),
    (["locality", "validate", "instance-b"], 0,
     "67932e1f0c65c5cc0111590b118c5c3e2de6f370966e03ff3922e79e389e5222"),
    (["theorem1", "instance-b"], 0,
     "f860f020e2186f6bf7f01d37cfb96428e931a63d4b409edb475301f41751270c"),
    (["theorem2", "instance-b"], 0,
     "49dde4c5b5ef713d9c68b481a31037efd641b664b314d97265116a0887d1fdac"),
    (["restriction", "instance-b"], 0,
     "6817ac4289c0445b00d40740ad4e0f5c040b107b7ae21bec109f7ed43da23000"),
    (["fusion", "build", "instance-b"], 0,
     "68307ac030e49f8fc33002e051df8b79b0ae9c1caad1a11a2764c06dbda8f85e"),
    (["fusion", "saturate-check", "instance-b"], 0,
     "bd4ca847f2819a3e3296759e26690a679a00eb1ac99441a91189be69c45a04dc"),
    (["product-ed", "instance-b"], 2,
     "8bf2e51a7f48d5ffcb8438fb05cf7ab5c9e5cfc4000f6f5f1a3edae0493e88b1"),
    (["verify-ed", "instance-b"], 2,
     "8bf2e51a7f48d5ffcb8438fb05cf7ab5c9e5cfc4000f6f5f1a3edae0493e88b1"),
    (["suite", "instance-b"], 0,
     "c86537c23b221e5e8847f51cc5e83656fc70a088c65eb7a5f9f174051072ae7d"),
    (["group", "info", "product-24"], 0,
     "bddabf2536ae7050386cfc81b3c139300c47b07ccf31ed13722d593168553a32"),
    (["locality", "build", "product-24"], 0,
     "88634789c9cc12de17041d59f85bcffae9d755986659bdde3614c02094914df2"),
    (["locality", "validate", "product-24"], 0,
     "896b1c5d4c9ecb5804df2b785b8320e75b3e8e181d271ef684ced5774bc082c7"),
    (["theorem1", "product-24"], 2,
     "3aea1e4a47b1a124c4bfff2bb57c87d3791191b26fa145828844580bae0bed8e"),
    (["theorem2", "product-24"], 2,
     "b7abb58c5128c4b78ad3920042dcb8e033d96c3e88961b917cf0dcd6fb214a68"),
    (["restriction", "product-24"], 2,
     "e7499cfb466031dbbc9e2b26c262941538a3c499d01fa6fcab8dd1fff38541bc"),
    (["fusion", "build", "product-24"], 0,
     "8235a62a63aede2d9941bda59bcab0eb8a35f687a7fc33e6d37a59a44118ee9c"),
    (["fusion", "saturate-check", "product-24"], 0,
     "a45ba23a705c003869dc5a603686826a03da0c006978f885bb5a0f043c102a8b"),
    (["product-ed", "product-24"], 0,
     "1a57d63df158343b4adca5eb86dcd612ec251557e249420e4c131b202a1b3a31"),
    (["verify-ed", "product-24"], 0,
     "8b5118f614e2157873ba75a9c05f6d707f82603629b038a5067016dcbc94c017"),
    (["suite", "product-24"], 0,
     "9133b02607be1f5a6ade7cf04c8e8a060f51bbcde3915f6ef4bc4bb2eada065b"),
    (["group", "info", "product-48"], 0,
     "3d454b1551aeced530d9e05ed402cd57ecdbc527de82d3a726b9f3d7d45782e3"),
    (["locality", "build", "product-48"], 0,
     "210cd2a06f9800044e2176e4920b11dcee5e181217fb71f851fde9fcf7fa3e25"),
    (["locality", "validate", "product-48"], 0,
     "fd74c4ec6de0efa47bed5ec39f7a3d3e347e2a1a73436e25a0b7b8b95d121394"),
    (["theorem1", "product-48"], 2,
     "3aea1e4a47b1a124c4bfff2bb57c87d3791191b26fa145828844580bae0bed8e"),
    (["theorem2", "product-48"], 2,
     "b7abb58c5128c4b78ad3920042dcb8e033d96c3e88961b917cf0dcd6fb214a68"),
    (["restriction", "product-48"], 2,
     "e7499cfb466031dbbc9e2b26c262941538a3c499d01fa6fcab8dd1fff38541bc"),
    (["fusion", "build", "product-48"], 0,
     "e81a968e50c9b7e96fdaa8d33e996044333df34ee8879828e4d9723ade0027ee"),
    (["fusion", "saturate-check", "product-48"], 0,
     "021b15081149f3b72b9909695d49e522fb06bfb9786284ea6323513090565887"),
    (["product-ed", "product-48"], 0,
     "26c1a01ab891542492f40784e6845be64e070f72ae9405fd4997d8b616cd906a"),
    (["verify-ed", "product-48"], 0,
     "5b854b2c56ad1a300a54c46b7191e419c397092fec7d0f15b717a810c3f8da72"),
    (["suite", "product-48"], 0,
     "759a4898a736d047ec5733b7f2c0e5385aac716f0a1cf20353b1ba9bec52e311"),
    (["group", "info", "group-8"], 0,
     "95a863e30b4938fc3eaa0efb1edd11c76d1feb22acd6011dd9512de1aede52b0"),
    (["locality", "build", "group-8"], 0,
     "e429cd48bf68cec4c9d0dac1971d67ed0184da879710f9eb976e59250c03cbb3"),
    (["locality", "validate", "group-8"], 0,
     "f142a7ba2c6fb25683e009d7b979be8e62652d232e385667f9b6b4644a82d68b"),
    (["theorem1", "group-8"], 2,
     "3aea1e4a47b1a124c4bfff2bb57c87d3791191b26fa145828844580bae0bed8e"),
    (["theorem2", "group-8"], 2,
     "b7abb58c5128c4b78ad3920042dcb8e033d96c3e88961b917cf0dcd6fb214a68"),
    (["restriction", "group-8"], 2,
     "e7499cfb466031dbbc9e2b26c262941538a3c499d01fa6fcab8dd1fff38541bc"),
    (["fusion", "build", "group-8"], 0,
     "d739c0aa4f6476e040818401dc55253bfac9d1845b2bf1f72a59895ade981782"),
    (["fusion", "saturate-check", "group-8"], 0,
     "02eea968c87e4c268b243abc7e0859ff577be5a055706dd21bd3b578600e11e9"),
    (["product-ed", "group-8"], 2,
     "8bf2e51a7f48d5ffcb8438fb05cf7ab5c9e5cfc4000f6f5f1a3edae0493e88b1"),
    (["verify-ed", "group-8"], 2,
     "8bf2e51a7f48d5ffcb8438fb05cf7ab5c9e5cfc4000f6f5f1a3edae0493e88b1"),
    (["suite", "group-8"], 0,
     "70147d7901ca8f8e28f8eb6c052c3199d2a9f92b85b352928e9f280dea6d4387"),
    (["group", "info", "group-60"], 0,
     "b7e7b026c89042ac1503bb64c370b12670d1e23dd9955547d5f661074f4d2075"),
    (["locality", "build", "group-60"], 0,
     "98522b74ecbd43239b789278338271c152fa45ab39f5b683da18eaa70cf3ae39"),
    (["locality", "validate", "group-60"], 0,
     "0660bcb08ce28b76e8a6ad5acddbdc566d0648526f1dbd915e99bdd771e9a4ac"),
    (["theorem1", "group-60"], 2,
     "3aea1e4a47b1a124c4bfff2bb57c87d3791191b26fa145828844580bae0bed8e"),
    (["theorem2", "group-60"], 2,
     "b7abb58c5128c4b78ad3920042dcb8e033d96c3e88961b917cf0dcd6fb214a68"),
    (["restriction", "group-60"], 2,
     "e7499cfb466031dbbc9e2b26c262941538a3c499d01fa6fcab8dd1fff38541bc"),
    (["fusion", "build", "group-60"], 0,
     "0152d5fc7079654d0630b8daf87518f0fec1e6c1d57244e1a84fdaa0a4335d8c"),
    (["fusion", "saturate-check", "group-60"], 0,
     "2a038b9c8dfdd482b9802acdea9463399d14c64942fcc77a8e6bb0f5834a07c0"),
    (["product-ed", "group-60"], 2,
     "8bf2e51a7f48d5ffcb8438fb05cf7ab5c9e5cfc4000f6f5f1a3edae0493e88b1"),
    (["verify-ed", "group-60"], 2,
     "8bf2e51a7f48d5ffcb8438fb05cf7ab5c9e5cfc4000f6f5f1a3edae0493e88b1"),
    (["suite", "group-60"], 0,
     "599722ffa9258f32c4899c512caf03caa44b4f42fef26b643dad7edeab5f3cc7"),
    (["verify-ed", "product-24", "--product", "subn"], 0,
     "375d7555289740853907c3fd187cf91e33b5019b66456d5ef8ca793af6206df8"),
]


@pytest.mark.parametrize("argv,code,digest", COMMANDS,
                         ids=[" ".join(a) for a, _, _ in COMMANDS])
def test_command_report_bytes_unchanged(argv, code, digest, capsys):
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ``fusion build`` on two larger benchmark descriptors, recorded before
# every subsystem moved onto the positions of its run's S: F_S(L) on S6xC2
# at p=2 (|S| = 32, 742 maps), and on S7 at p=2; both over Delta =
# order >= 4, a proper object set.
BENCH_FUSION_SHA256 = {
    "s6xc2":
        "8cf93b349d1a64a1718e6d5be3701b6d5e47ebc001034223ed1b7f4bf169ff88",
    "s7":
        "c4136b16a116263cf213a586d54da9844c29df60403637132903a796e6c20c7e",
}


@pytest.mark.parametrize("name", sorted(BENCH_FUSION_SHA256))
def test_bench_fusion_build_bytes_unchanged(name, capsys):
    path = BENCH_INSTANCES / f"{name}.json"
    assert main(["fusion", "build", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        BENCH_FUSION_SHA256[name]


# ``locality validate`` on the two larger benchmark descriptors, with its
# exit code, recorded before the split check took the left states a
# group at a time: S7 at p=2 with words up to length 3 (1,136 states),
# and S6 at p=2 at the descriptor's bound.
BENCH_VALIDATE = [
    ("s7", ["--max-word-len", "3"], 0,
     "a02febd8209acc389330b02a4347ea8e3275cb6c858900e9b31f36370d92f9d4"),
    ("s6", [], 0,
     "14b1c8dc1d03d72c6cf37565853019f262d77a07a103f5bb85803436a403f03d"),
]


@pytest.mark.parametrize("name,extra,code,digest", BENCH_VALIDATE,
                         ids=[name for name, _, _, _ in BENCH_VALIDATE])
def test_bench_locality_validate_bytes_unchanged(name, extra, code, digest,
                                                 capsys):
    path = BENCH_INSTANCES / f"{name}.json"
    assert main(["locality", "validate", str(path), *extra]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The two product descriptors with Delta = order >= 4, a proper object
# set: the only command runs that decide whether a subgroup outside
# Delta is subcentric (``products._locality_route_fault``).  On
# product-24 some subcentric subgroup lies outside Delta, so the locality
# route is refused, an input error; on product-48 none does, the
# generation formula gives ED and the locality route has no verdict.
MIN4_SHA256 = {
    ("verify-ed", "product-24"): (2,
        "2d9b458ebaf80d571ce2ab26a61bb4df8108f80f31538f5e380a0b8271f60241"),
    ("product-ed", "product-24"): (2,
        "2d9b458ebaf80d571ce2ab26a61bb4df8108f80f31538f5e380a0b8271f60241"),
    ("suite", "product-24"): (2,
        "2d9b458ebaf80d571ce2ab26a61bb4df8108f80f31538f5e380a0b8271f60241"),
    ("verify-ed", "product-48"): (0,
        "d24e9e93c9865c76679755c95b7de9bf3b525e1233868d526ce5eab6281e5d1c"),
    ("product-ed", "product-48"): (0,
        "2ec0ce90a34ce41dfef586bbfba8f0af2417ae7b0bf74dbc78596a5453df49c6"),
    ("suite", "product-48"): (0,
        "0d92cd31028d2ee26e9759d1aeae9e5a0aa862c4f08fff5ec9cb3ba4012ae6c3"),
}


@pytest.mark.parametrize("command,name", sorted(MIN4_SHA256),
                         ids=[" ".join(k) for k in sorted(MIN4_SHA256)])
def test_min_order_4_product_bytes_unchanged(command, name, tmp_path,
                                             capsys):
    path = tmp_path / f"{name}-min4.json"
    path.write_text(json.dumps({**load_descriptor(name),
                                "delta": {"min_order": 4}}))
    code, digest = MIN4_SHA256[command, name]
    assert main([command, str(path)]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    report = json.loads(out)
    if name == "product-24":
        assert report["error"] == \
            "object set does not contain every subcentric subgroup"
    elif command == "verify-ed":
        (product,) = report["products"]
        assert product["route"] == "formula_e"
        assert product["cross_route_agreement"] is None
