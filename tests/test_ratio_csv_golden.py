"""Golden SHA-256 digests of ratio CSVs.

The CSVs carry every step's node count, reduced indicator and two floats,
so a change in how a step is evaluated that moves a single digit changes a
digest.  The fixed values lie inside the benchmark's ranges (M 2-8, K 1-8,
L 1-8).
"""

import hashlib

import pytest

from spidernets import cli

# asymptotics --all --csv-dir DIR
ALL_DIGESTS = {
    "DSWA_vary_K.csv": "4053a409a7ee89b52443ad5f6bc3eb7d4d054cfb5d3cbc85cd659ec71757fa87",
    "DSWA_vary_L.csv": "4053a409a7ee89b52443ad5f6bc3eb7d4d054cfb5d3cbc85cd659ec71757fa87",
    "DSWA_vary_M.csv": "6bdf92e4758ba4cb27314e82e82456b71ba8e25feb2fb1134022e1552cf03b6e",
    "DSWL_vary_K.csv": "70a588752126686411e56b39d4360c5ad50e736381078de08ff6da0d9581f471",
    "DSWL_vary_L.csv": "79821b53601180cf39b4f25381d00a57654c2995db5f3cff26108f366a708a6d",
    "DSWL_vary_M.csv": "eda5bcb208c8acd20caa77452c12795dce6a43eb9dab4229ff4edad3850e3bc8",
    "SWA_vary_K.csv": "5a38a1d6c51eba6ce6b6aa63a21e7ea5eb6762eae01dd77ab5a239d3597ad582",
    "SWA_vary_L.csv": "da3fd42a96755c86cad121ac4027c4bb0c0c8aa853c195d7aa46c5f786bc7dc9",
    "SWA_vary_M.csv": "b36d5370b3da9044550948bd22a0b3a862a2d5e2a533a1fabce3cbb81903797a",
    "SWD_vary_K.csv": "e3c8b341103b64aac2998b698d829b4f54583d34c01496e46fd95feb052ab4a4",
    "SWD_vary_L.csv": "f1d6e07719d5f2fd0820ba895019a55efb669344f02bfe5200833a28589ab633",
    "SWD_vary_M.csv": "8bf1f8707c464f857f35b36da0587c658d83970f9b2423fa3412b6dd83ba7e56",
}

# asymptotics --notion N --vary V --fix <the other two of M=3,K=2,L=5> --steps 1,...,2001
FIXED = {"M": 3, "K": 2, "L": 5}
CELL_DIGESTS = {
    ("DSWL", "M"): "627322c615dec06325a2a38ac20180d9c01002aa71300f5abf77763d58be9d93",
    ("DSWL", "K"): "90a60f2c3edb9a1352bb4dab3c368138db127b63c79d995651d60944bb377daf",
    ("DSWL", "L"): "38b2aebb04651c862bb39e15512fd4df14bb13a4606e40f1e0ce7827ad5f6dfe",
    ("DSWA", "M"): "a57d875b2fff13f2407ab4df349e6a9fcb540aa787e2e28191c4d376eeed7b93",
    ("DSWA", "K"): "aa5468a26178b72262fa6a7fa7e0497af7adbe48a3b12827bda79ddd7145c303",
    ("DSWA", "L"): "6c3fda74fc91abcb0a9be718c2db2849a19e8180020af6a81047a81b79ed7ab7",
    ("SWD", "M"): "bb1582f5ded85844e922edc5cab1682e7a12a05a68a6f6763fc7ed7d52f10d05",
    ("SWD", "K"): "d073aab7444816d22cc91febe4696187fe1bf27ebca253b9f9c08c82f77edbe8",
    ("SWD", "L"): "b93ffa2c3b89bedea88b8acd08aee9ae6d12f4dcbf279fbc7caa13882879f06f",
    ("SWA", "M"): "e6176a3ea3788bf359b71deaeea6bb6b81fd418b7ca3078b462b6dc7ae6e4910",
    ("SWA", "K"): "307eb5a1e2410f5e122441fdc0b30309f3e3cce4e6f51f6d99b3cc7a3ddb4b2f",
    ("SWA", "L"): "ae1dc4a598150287ccdc9095af5c3131f6b6f9ae40eb8772a9c18b4d3a4f9477",
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_all_cells_csv_dir(tmp_path, capsys):
    assert cli.main(["asymptotics", "--all", "--csv-dir", str(tmp_path)]) == 0
    assert {path.name: _digest(path) for path in tmp_path.iterdir()} == ALL_DIGESTS


@pytest.mark.parametrize("notion,vary", list(CELL_DIGESTS))
def test_one_cell_over_2001_steps(tmp_path, capsys, notion, vary):
    path = tmp_path / "cell.csv"
    argv = [
        "asymptotics", "--notion", notion, "--vary", vary,
        "--fix", ",".join(f"{name}={value}" for name, value in FIXED.items() if name != vary),
        "--steps", ",".join(map(str, range(1, 2002))), "--out-csv", str(path),
    ]
    assert cli.main(argv) == 0
    assert _digest(path) == CELL_DIGESTS[notion, vary]
