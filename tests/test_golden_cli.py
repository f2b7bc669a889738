"""Pinned `near` output: list-mode fields, dim-2 parents and realized tables.

The digests are sha256 of the exact stdout bytes of `mfnear near` on fixed
inputs (drawn once by MMFunction.random(n, random.Random(seed)) for
(n, seed) in (2, 1), (3, 2), (3, 3), (4, 4)).  They pin every field of a
witness (L, info_set, H matrix and constant) and of a parent, so a change
in the types behind them cannot change the output unnoticed.  The parents
index is the first dim-2 witness of the list; (3, 2) has none.
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
]


@pytest.mark.parametrize(
    "name, extra, digest", GOLDEN, ids=[f"{n}-{'-'.join(e).lstrip('-')}" for n, e, _ in GOLDEN]
)
def test_near_output_digest(capsys, name, extra, digest):
    pi, phi = INPUTS[name]
    assert cli.main(["near", "--pi", pi, "--phi", phi, *extra]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
