"""Play both infinite-game strategies for a few rounds and verify the runs.

The non-supercyclicity strategy keeps a floor under a fixed coordinate ratio
along the orbit; the eigenvalue-free strategy screens truncation eigenpairs
and rejects them all.  Honest geometry for the second strategy explodes
doubly exponentially, so the toy mode caps the window sizes -- runnable, but
explicitly not certified.
"""

from __future__ import annotations

from lplab.game import (
    EigenfreeParams,
    play_game,
    verify_eigenfree_run,
    verify_nonsup_run,
)


def show(title: str, rep: dict) -> None:
    print(title)
    for sec in rep["sections"]:
        print(f"  [{sec['status'].upper():4}] {sec['name']}")
    print(f"  certified: {rep['certified']}")
    print()


run = play_game("nonsup", rounds=3, seed=7, adversary="random")
show("non-supercyclicity, 3 rounds vs random adversary:", verify_nonsup_run(run))

run = play_game("eigenfree", rounds=2, seed=7, adversary="passthrough")
show("eigen-free, 2 honest rounds:", verify_eigenfree_run(run))

run = play_game(
    "eigenfree",
    rounds=4,
    seed=7,
    params=EigenfreeParams.toy_mode(),
    adversary="passthrough",
)
show("eigen-free, 4 toy rounds (capped geometry):", verify_eigenfree_run(run))
