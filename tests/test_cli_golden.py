"""Golden stdout of every CLI command, text and ``--json``.

One session over Q[d] holds a system with autonomous parts, a module with
torsion and a free part, and a free module.  The sha256 of each command's
stdout was recorded before the report classes were folded, so any change
in the bytes the CLI prints (verdicts, key order, generator order) fails
here.  ``verify --all --json --seed 3`` pins the corpus sweep as well.
"""

import hashlib
import os
import subprocess
import sys

import pytest

import malgrange
import malgrange.groebner as groebner
from malgrange.cli import main

SESSION = """ring Q[d];
system S = [[d, -1, 0], [0, d^2 + 1, 0], [0, 0, d - 2]] vars x, u, y;
module T = coker [[d^2 - 1, 0]];
module F = coker [[0]];
"""

GOLDEN = {
    "analyze":
        "8674848ef2317441be8bff6be8fdf84fb193316237db7e7489ade3cef996e2d7",
    "analyze --json":
        "c8a6757fc7b33629fd04650b33fe3a11b3b1267b6c0fd7be2420aa59f7577865",
    "torsion":
        "b3b1b29d77c8bc170547bccf81b193b6f86b3a4447bc09a1c8bc0b98a3e9fe99",
    "torsion --json":
        "1d28c452692d08833d978309fc14f19906fa7c772cfd91c9d5b5f05756206cd2",
    "defect":
        "c7803bd2dde12466259ecd48275231cafe5c8a975c8fd05a2ce5f51d9ef8c76e",
    "defect --json":
        "37526959a256e048caf7aba8ea2b5264a0ba2c4efe34b8c1aceb4e74fa98041c",
    "hom":
        "03160b6c5be604650415c373a5e703dab981eaa18920fe85e0e9e88f5cf1c702",
    "hom --json":
        "47dc3bab3c64fd19d2a2cedc290ac8b27182306b92f430d2c09e4a1d902f9b01",
    "gb":
        "def683a30b8266cd50c5c83f55e91a7ef6fafc72f41536f335714e12b31996be",
    "gb --json":
        "21ae36fa518abb8c51fa685bea825adffac64aecda1b689b529246d6458963da",
    "verify":
        "5a54453b8f843d9f75d2c744a559adb9cbb53327a75c15fad81386f1c0ee2d12",
    "verify --json":
        "1d5eb951c3c9284bdc780e34306097bf4a4da282351f551866a89e12b9143477",
    "verify --all --json --seed 3":
        "02425f3218f42576ef658a41e2144e998ce5a877422af6bfca18535cc6cebdf1",
}


def _stdout_sha(capsys, monkeypatch, argv):
    monkeypatch.setenv("MALGRANGE_COLOR", "never")
    capsys.readouterr()
    code = main(argv)
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN),
                         ids=lambda key: key.replace(" ", "_"))
def test_cli_stdout_matches_golden(key, tmp_path, capsys, monkeypatch):
    path = tmp_path / "session.mg"
    path.write_text(SESSION)
    args = key.split()
    if args[0] != "verify" or "--all" not in args:
        args.insert(1, str(path))
    code, digest = _stdout_sha(capsys, monkeypatch, args)
    assert code == 0
    assert digest == GOLDEN[key]


def test_corpus_sweep_is_identical_on_a_cold_and_a_warm_cache(capsys,
                                                              monkeypatch):
    # the second run answers from the bases, solvers and Hom modules the
    # first one cached; neither may print a different byte
    key = "verify --all --json --seed 3"
    groebner._CACHE.clear()
    for _ in range(2):
        code, digest = _stdout_sha(capsys, monkeypatch, key.split())
        assert (code, digest) == (0, GOLDEN[key])


def test_corpus_sweep_does_not_depend_on_the_hash_seed():
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, MALGRANGE_COLOR="never", PYTHONHASHSEED=seed)
        r = subprocess.run([sys.executable, "-m", "malgrange", "verify",
                            "--all", "--json", "--seed", "3"],
                           capture_output=True, env=env, timeout=120)
        assert r.returncode == 0
        outs.append(r.stdout)
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[0]).hexdigest() == GOLDEN[
        "verify --all --json --seed 3"]


def test_every_export_resolves():
    for name in malgrange.__all__:
        assert hasattr(malgrange, name), name
