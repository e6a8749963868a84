"""Fuzz tests: ``cli_main`` on drawn ``game --params`` and ``mc --config`` files.

Every draw must end in exit code 0, 1 or 2, and no exception may leave
``cli_main``.  The draws run in process and derandomised.  The ``game``
draws are dicts over the ``EigenfreeParams`` fields plus one unknown name,
with edge values (signed zeros, a subnormal, 1e308, NaN and infinities,
ints, bools, None, strings, short lists).  A valid ``mc`` configuration
stays at dim <= 4 and samples <= 2; a field drawn invalid may take any value.
"""

from __future__ import annotations

import dataclasses
import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lplab.cli import cli_main
from lplab.game import EigenfreeParams
from lplab.montecarlo import MAX_DIM, MAX_SAMPLES, ExperimentKind

FUZZ = settings(max_examples=120, deadline=None, derandomize=True, database=None)
EXIT_CODES = (0, 1, 2)

EDGE = [0.0, -0.0, 1e-320, -1e-320, 1e308, -1e308, math.nan, math.inf, -math.inf,
        True, False, None, 10**400, -(10**400)]
scalars = st.one_of(
    st.sampled_from(EDGE),
    st.integers(-3, 40),
    st.floats(-2.0, 2.0),
    st.text(max_size=3),
)
values = st.one_of(scalars, st.lists(scalars, max_size=3))
PARAM_NAMES = [f.name for f in dataclasses.fields(EigenfreeParams)] + ["no_such_field"]
game_params = st.dictionaries(st.sampled_from(PARAM_NAMES), values, max_size=4)


def _run(tmp_path_factory, argv: list[str], flag: str, data) -> int:
    path = tmp_path_factory.mktemp("fuzz") / "in.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return cli_main(argv + [flag, str(path)])


@FUZZ
@given(data=game_params)
@example(data={"c": 1e308})
@example(data={"c": 1e-320})
@example(data={"c": math.nan, "alphas": [0.5, "x"]})
def test_game_params_end_in_an_exit_code(tmp_path_factory, data):
    argv = ["game", "--strategy", "eigenfree", "--rounds", "2", "--toy"]
    assert _run(tmp_path_factory, argv, "--params", data) in EXIT_CODES, data


VALID = {
    "space": st.sampled_from(["c0", "l1", "l2", "1.5", "3", "l4"]),
    "dim": st.integers(1, 4),
    "samples": st.integers(0, 2),
    "seed": st.integers(0, 2**40),
    "experiment": st.sampled_from([k.value for k in ExperimentKind]),
}
# Values that make dim or samples invalid, so that no draw runs a large config.
INVALID = {
    "dim": st.sampled_from([0, -1, MAX_DIM + 1, 10**400, 2.0, True, None, "4", math.nan]),
    "samples": st.sampled_from([-1, MAX_SAMPLES + 1, 10**400, 1.0, False, None, "2", math.inf]),
}


@st.composite
def mc_config(draw):
    cfg = {key: draw(strategy) for key, strategy in VALID.items()}
    key = draw(st.sampled_from([None, "extra_field", *VALID]))
    if key is not None and draw(st.booleans()):
        cfg.pop(key, None)
    elif key is not None:
        cfg[key] = draw(INVALID.get(key, values))
    return cfg


mc_configs = st.one_of(mc_config(), st.lists(mc_config(), max_size=2), values)


@FUZZ
@given(data=mc_configs)
def test_mc_config_ends_in_an_exit_code(tmp_path_factory, data):
    assert _run(tmp_path_factory, ["mc"], "--config", data) in EXIT_CODES, data
