"""Golden output digests of the CLI.

Each case runs one ``baws`` command on fixed inputs and seeds and compares
the sha256 of the CSV it writes with a recorded digest.  Refactors must
leave every digest unchanged.  A change that alters outputs on purpose
(for example a corrected estimator or metric, ROADMAP items 2 and 3)
updates the affected digests in the same change and says in CHANGES.md
which outputs moved and why.
"""

from __future__ import annotations

import hashlib

import pytest

from baws.cli import main

BACKTEST = ["--t0", "271", "--seed", "7"]
BAWS_BACKTEST = [*BACKTEST, "--B", "50"]  # --B is rejected for the other methods
EXPERIMENT = ["--methods", "baws,saws,fixed:50,full", "--n", "2", "--k0", "20",
              "--B", "50", "--seed", "3"]

CASES = {
    **{
        f"backtest-baws-{target}-{mode}-{fmt}": [
            "backtest", "--method", "baws", "--target", target,
            "--bootstrap-mode", mode, "--format", fmt, *BAWS_BACKTEST]
        for target in ("mean", "var", "vares")
        for mode in ("iid", "block")
        for fmt in ("wide", "long")
    },
    "backtest-baws-var-fwer": ["backtest", "--method", "baws", "--target", "var",
                               "--bootstrap-mode", "block", "--error-control", "fwer",
                               "--beta", "0.5", *BAWS_BACKTEST],
    **{
        f"backtest-saws-{target}": ["backtest", "--method", "saws", "--target", target,
                                    "--saws-c-tau", "1e-5", *BACKTEST]
        for target in ("mean", "vares")
    },
    "backtest-fixed-vares": ["backtest", "--method", "fixed:50", "--target", "vares",
                             *BACKTEST],
    "backtest-full-var": ["backtest", "--method", "full", "--target", "var", *BACKTEST],
    "experiment-A1-mean": ["experiment", "--scenario", "A1", "--target", "mean",
                           "--T", "300", "--t0", "271", *EXPERIMENT],
    "experiment-GARCH-var": ["experiment", "--scenario", "GARCH", "--target", "var",
                             "--T", "230", "--t0", "226", *EXPERIMENT],
    "experiment-A3-vares": ["experiment", "--scenario", "A3", "--target", "vares",
                            "--T", "300", "--t0", "291", *EXPERIMENT],
    # a random mean path per replication, and the skewed-t ES truth
    "experiment-B2-var": ["experiment", "--scenario", "B2", "--target", "var",
                          "--T", "300", "--t0", "271", *EXPERIMENT],
    "experiment-GARCH-vares": ["experiment", "--scenario", "GARCH", "--target", "vares",
                               "--T", "230", "--t0", "226", *EXPERIMENT],
}

DIGESTS = {
    "backtest-baws-mean-block-long":
        "a60738516614ff7824ee6f6061859c7103275622132328d29dfe456e7407b226",
    "backtest-baws-mean-block-wide":
        "5d0934d80c837278ff6d737d2d1c65c142023e7fca3ead6eab6d7eb60b02e045",
    "backtest-baws-mean-iid-long":
        "2f60b6505ee1b65e9d0d7adab9755fa3db3e61584bd0ff60f72c0ee7795628e3",
    "backtest-baws-mean-iid-wide":
        "cd636b1de822c8ee9ebd00cb4bbafe98d13348bd493c50fc70512a5cd588cab7",
    "backtest-baws-var-block-long":
        "381cd964081b99c09fcd8f54b0a26506633be9d02d672f94b97a26146c27a22d",
    "backtest-baws-var-block-wide":
        "5379311b5c6c5b8d3fd21ffa05e67e61ebf58a00ae441c58f7499fa116a38cc0",
    "backtest-baws-var-fwer":
        "82b231f7df2e520694b588e32caa207dfa4ab48f7677fc799dfd5a63c4018132",
    "backtest-baws-var-iid-long":
        "7d4dc2988cdbb9f12250d7349b9b518a041d27f8157d10e4cb5f0c293aab6cac",
    "backtest-baws-var-iid-wide":
        "004d995f51ceda1fd1cd3083c4c376b13a8508b28ed6954cec4ea5320737f7e9",
    "backtest-baws-vares-block-long":
        "5d3ec41419e8edbbdaaf7f5a136b06dfbf91fac83f006f5d64534e3d0c9891cf",
    "backtest-baws-vares-block-wide":
        "5c2b1914f8283d1fb21b63346dfa9b485e178d48ac03b535e318907cbd1dfe62",
    "backtest-baws-vares-iid-long":
        "5251a952421ca6b4de4cffa4177e61ce20928ac77d70379a0fe05a3bd4238e26",
    "backtest-baws-vares-iid-wide":
        "ff12c6a1aa4dd6f3cb4af4923477e8423dce63b2f276c9aa50093bef4aecb70e",
    "backtest-fixed-vares":
        "54178297cbaac0790a3f86de6b5bd62c8f7e0368d1a80140aa3decac3a2986c9",
    "backtest-full-var":
        "51cb0e329d3969178db008e8725a49b88e91422f13c8834858670b6cb63e249a",
    "backtest-saws-mean":
        "824bd98335b93ef9f796475534beb73c7bbdb5dc95cc05498e0d206282fb5522",
    "backtest-saws-vares":
        "ad9e86960ed2d3918d83c4a50f6b04d9fd49ad150e86a04f713d33aff293394e",
    "experiment-A1-mean":
        "893891d6e0d4faf393923c090717fa4faee0f8673c47d5e1eb8e3c4ef0629384",
    "experiment-A3-vares":
        "942da9e882d7ddaef8a1d3951c11e517d9d407150d39fade29ccd22385eeccd6",
    "experiment-B2-var":
        "777115c0860b24040127045de0297218bdaf1ccda9d98fa0bff0d96daa406c15",
    "experiment-GARCH-var":
        "decc3ae72e9a1de0a4d0893e26815290adaa1ee7cc3dde1bebed1f23fcf600ba",
    "experiment-GARCH-vares":
        "4330a2db061d0f8c68c6e7f8764e8270c46219f102e3254161dea1a28b46ad3c",
}


@pytest.fixture(scope="module")
def garch_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "garch.csv"
    assert main(["simulate", "--scenario", "GARCH", "--T", "300", "--seed", "11",
                 "--out", str(path)]) == 0
    return path


def cli_digest(name, garch_csv, out) -> str:
    argv = list(CASES[name])
    if argv[0] == "backtest":
        argv += ["--input", str(garch_csv), "--loss-col", "loss"]
    assert main(argv + ["--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_digest(name, garch_csv, tmp_path, monkeypatch):
    monkeypatch.setenv("BAWS_WORKERS", "1")
    assert cli_digest(name, garch_csv, tmp_path / "out.csv") == DIGESTS[name]
