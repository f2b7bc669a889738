"""Pinned `near` output: list-mode fields, dim-2 parents and realized tables,
on the criterion side and on the brute scan (`--brute`); and pinned
`sample` and `verify` output on fixed seeds.

The digests are sha256 of the exact stdout bytes of `mfnear near` on fixed
inputs (drawn once by MMFunction.random(n, random.Random(seed)) for
(n, seed) in (2, 1), (3, 2), (3, 3), (4, 4)).  They pin every field of a
witness (L, info_set, H matrix and constant) and of a parent, so a change
in the types behind them cannot change the output unnoticed.  The parents
index is the first dim-2 witness of the list; (3, 2) has none.

The `sample` and `verify` digests pin the seeded estimates (mean, standard
error, target, z, the 2n = 8 multi_* fields; z is absent at --trials 1) and
each suite's labels, statuses and work counters.  They run without
--timings, so the output is byte-deterministic.
"""

import hashlib

import pytest

from mfnear import cli

INPUTS = {
    "n2": ("[3,0,2,1]", "0010"),
    "n3a": ("[5,3,4,1,2,6,7,0]", "00000010"),
    "n3b": ("[0,5,7,2,1,6,4,3]", "00000101"),
    "n4": ("[10,5,12,9,14,3,0,8,13,2,15,6,11,1,4,7]", "0010110010100001"),
}

GOLDEN = [
    ("n2", ("--mode", "list"), "644f88ec407c02949231599a62b28a2ab00c7948033b22a5d357e057efd617aa"),
    ("n2", ("--mode", "realize"), "13ca02a63fefcec3d1a35c356df0ef7981439590dd4c14657524985fda64f46b"),
    ("n2", ("--mode", "list", "--parents", "28"), "1dba86ee54fcc716362fcead3218947f656109cebcc197654306e7d6343dea5e"),
    ("n3a", ("--mode", "list"), "304919cc36e80e8e1049689b2dcef913ed6779f3ef0ee5c28b1f8e41182abc1a"),
    ("n3a", ("--mode", "realize"), "28e184e016bfa8c84c4e7b9b976071ffe32fe5cee3a3a1eb5e75e32ba9f50c93"),
    ("n3b", ("--mode", "list"), "2d2aac14942030f51752507325eb4b999c7fd6d469f29a816bd1184a8c0683fc"),
    ("n3b", ("--mode", "realize"), "2ec5d1575b1acf2f972c23d9d4aa23f2adf862dbb5a119be1f1e3d762f7d367c"),
    ("n3b", ("--mode", "list", "--parents", "120"), "8dc0fd946fbc82ddfacd8df96e14fd08b4a36a8c13c7776d083b16d3de4f0d7a"),
    ("n4", ("--mode", "list"), "36cb30083178a6486fe81beb44861edc7f0de394a6b0093deb4b99f2215681fa"),
    ("n4", ("--mode", "realize"), "912ca0ba888425eb5aca05241e44f5c8307cd6d0f1ec5f8173fb8f6c0cf2dc0a"),
    ("n4", ("--mode", "list", "--parents", "496"), "ac6b3570d716b99368da0578587b721b472ca3de5074b22f44c5cea56786f91e"),
    ("n2", ("--mode", "realize", "--brute"), "0dd2c0d0ac173bcea5604b3908f166d65e2324086d26b087f3eed76c77bdaec5"),
    ("n3a", ("--mode", "realize", "--brute"), "e5d999046aa2fb8198ccff0cae38dfc62cce9ad1323f98175b5e911a6d814c6c"),
    ("n4", ("--mode", "realize", "--brute"), "19ca14d564c3c0e60375fafe05585443905f891df381334ed408e097a02971b6"),
    ("n2", ("--mode", "realize", "--parents", "28"), "58bb9f17ed15a79e125f7267ed25157f33e06bda771f7a72e62d1964cb537755"),
    ("n4", ("--mode", "realize", "--parents", "496"), "e7ea5de25612ff38c56c0daf269f26a1358e3c8d65ea1613ae2965f38d704e57"),
]


@pytest.mark.parametrize(
    "name, extra, digest", GOLDEN, ids=[f"{n}-{'-'.join(e).lstrip('-')}" for n, e, _ in GOLDEN]
)
def test_near_output_digest(capsys, name, extra, digest):
    pi, phi = INPUTS[name]
    assert cli.main(["near", "--pi", pi, "--phi", phi, *extra]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


SEEDED_GOLDEN = [
    (("sample", "--kind", "m-size", "--two-n", "4", "--trials", "40", "--seed", "1"),
     "adc7d40cd279056e2a468d4b7097fb4247f5fcef5bbdb146530295f1983a3ab4"),
    (("sample", "--kind", "m-size", "--two-n", "4", "--trials", "1", "--seed", "1"),
     "059971e8e557779836fc0e2e951bf7c5b68e7921bad4f618d63b800f7b769c94"),
    (("sample", "--kind", "m-size", "--two-n", "6", "--trials", "30", "--seed", "2"),
     "cc2eabb73e8ddd0a46fd7d9ef84c5d6fd2d8878dd6a440e8baee4a793bbc3fcf"),
    (("sample", "--kind", "m-size", "--two-n", "8", "--trials", "6", "--seed", "3"),
     "81f7b476d59d4fb68050b3d5b4a7743e74c51328c37e2ed6a7074cfb138b165d"),
    (("sample", "--kind", "near-average", "--two-n", "8", "--trials", "6", "--seed", "4"),
     "c1b0c4a92006c3e409c7e4a70ceda262ddeb068a117d6f039332ba4924be2ea1"),
    (("verify", "--suite", "coincidence", "--trials", "2", "--seed", "1"),
     "3b7ca5448419602b638c8f1971f7e73068d71f00eba4bbf2d8578b874eb25be8"),
    (("verify", "--suite", "beta", "--trials", "4", "--seed", "2"),
     "0474ee96ebbf7c8a72427aeec768b223d2d4b753e2d6f59e5dbd9f4cd276dbb8"),
    (("verify", "--suite", "census", "--seed", "3"),
     "e395cf08bc78e5c4213446218bf868e8d3c3d7ec16bafc7d7b35cb8f66a4f5fe"),
    (("verify", "--suite", "sums", "--seed", "4"),
     "282dcbf9111ca772812bc1991e407ebf4c34ff197dda7eed17eb151cb7517489"),
    (("verify", "--suite", "near", "--trials", "2", "--seed", "5"),
     "32c31249651d488d3fff4ccedd783a10af78b93c6f761f08a50a897fc5c253f2"),
]


@pytest.mark.parametrize(
    "argv, digest", SEEDED_GOLDEN, ids=["-".join(a[:1] + a[2::2]) for a, _ in SEEDED_GOLDEN]
)
def test_seeded_output_digest(capsys, argv, digest):
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
