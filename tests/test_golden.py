"""Golden sha256 digests of the default CLI outputs.

The digests were recorded at commit 8f49d2d; a change that moves one byte of
these outputs fails here.  Every run uses an explicit --points family, so no
number passes through libm (cos, sin, pow, exp, log), whose last-place
rounding may differ between platforms: --ngon, classify, alpha and the dual
report on stdout are left out for that reason.
"""

import hashlib

from barypoly.cli import cli_dispatch

PENTAGON = ["--points", "0,0;4,-0.5;5.2,2.8;2.4,4.6;-0.8,2.9",
            "--t", "1/61,1/41,1/28,1/19,1/13", "--n", "50"]
TRIANGLE = ["--points", "0,0;1,0;0,1", "--t", "0.2,0.3,0.4", "--n", "12"]
DERIVE = ["derive", "--t", "0.2,0.3,0.4", "--n", "6"]

GOLDEN = {
    "simulate.stdout": "1e5c6d2dda9b397a3e2d7fdbe3c814ef1622b330dd3a1727eb839714695ecb07",
    "simulate.csv": "5d81cbac1b523d15598ae07d4a8e8ec5211106ec6ea81ed390989cafcb7e7864",
    "simulate.json": "d208d1cb7edca55b87de2ff038ab1fd9ea07d059f40501c84280c6124271dd56",
    "derive.stdout": "3f6c2a59e8f927925424945edf8fbc4dc903b7cddcfdffd4c7e945e8a4349e0e",
    "derive.json": "81617fd4821e91c74530d112772262b3862a61867ace295ea1dc2802c907f5db",
    "dual.json": "a768f65153bd03588e993a9798d59f186eda21fe8fe1a7fb1520730f099d6c7f",
    "figure/derived_0.svg": "651ddc35590af085b1d4772fb678b9c2272596bdbc3fe7a793a7de79cb590368",
    "figure/derived_1.svg": "666fce115f5c34be78aed6e231abb49970e87643f3f06747b89d77a8065b121f",
    "figure/derived_2.svg": "fd9d9523ebe75bc1902aa246ecefbf0dd3086a479e2bca33174f42d6c9d35356",
    "figure/derived_3.svg": "796071c5775aa63dd59d86a837994c789a8aa46631e2756cbb43ebb7969d8498",
    "figure/derived_4.svg": "c37c1db0c3c8db85ecf8fa41717a40a7385c59409226a73eb12f3639735bb731",
    "figure/derived_5.svg": "f19e7d9cebf69ae0102f74947934d31e3eb323b82a6c26abcf6ae6c9a6c04af0",
    "dual.svg": "48085300b0c74606349d38a324905d6ee9dabc1c50496bfa8f4f0c6f2ef34020",
}


def _stdout(capsys, argv):
    assert cli_dispatch(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out.encode()


def test_default_outputs_match_the_recorded_digests(capsys, tmp_path):
    got = {
        "simulate.stdout": _stdout(capsys, ["simulate", *PENTAGON]),
        "derive.stdout": _stdout(capsys, DERIVE),
    }
    for argv in (
        ["simulate", *PENTAGON, "--out", str(tmp_path / "simulate.csv")],
        ["simulate", *PENTAGON, "--out", str(tmp_path / "simulate.json"), "--format", "json"],
        [*DERIVE, "--out", str(tmp_path / "derive.json"), "--format", "json"],
        ["dual", *TRIANGLE, "--out", str(tmp_path / "dual.json"), "--format", "json"],
        ["figure", *PENTAGON[:4], "--orders", "0-5", "--out-dir", str(tmp_path / "figure")],
        ["figure", *TRIANGLE, "--dual", "--out", str(tmp_path / "dual.svg")],
    ):
        _stdout(capsys, argv)
    for name in GOLDEN.keys() - got.keys():
        got[name] = (tmp_path / name).read_bytes()
    assert {name: hashlib.sha256(data).hexdigest() for name, data in got.items()} == GOLDEN
