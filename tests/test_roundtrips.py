"""Property tests for the two text formats: experiment configs and measure files.

A drawn config rendered to ``key = value`` text parses back equal, text a key
cannot convert is rejected with an error that names the key, and a written
measure file parses back bit for bit.
"""

import enum

import numpy as np
import pytest

from entot import harness as hz
from entot import measures as ms
from entot.errors import ConfigError
from entot.harness import ExperimentConfig, ExperimentKind, ScenarioKind
from entot.sinkhorn import DENSE_ENTRY_LIMIT, SolverConfig

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
arrays = pytest.importorskip("hypothesis.extra.numpy").arrays

_SETTINGS = hypothesis.settings(max_examples=50, deadline=None, derandomize=True,
                                database=None)

_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_COUNT = st.integers(min_value=1)
_FILE_NAME = st.text("abcXYZ019_./-", min_size=1)

# Every key whose value text is converted; p_file and q_file take any text.
_CONVERTED_KEYS = ("kind", "scenario", "dims", "eps_list", "n_list", "replicates",
                   "alpha", "seed", "tol", "max_iter", "atoms")


@st.composite
def _config_values(draw):
    """Key -> value of a valid config; optional keys may be absent."""
    kind = draw(st.sampled_from(ExperimentKind))
    # A sample (n or atoms points in the largest dimension) fits the entry
    # limit, the default of 10 atoms too.
    dims = draw(st.lists(st.integers(1, DENSE_ENTRY_LIMIT // 10), min_size=1))
    size = st.integers(1, DENSE_ENTRY_LIMIT // max(dims))
    n_list = st.lists(size, min_size=1)
    if kind is not ExperimentKind.COVERAGE:  # rate runs need increasing n
        n_list = st.lists(size, min_size=1, unique=True).map(sorted)
    scenario = draw(st.sampled_from(ScenarioKind))
    values = {
        "kind": kind,
        "scenario": scenario,
        "dims": dims,
        "eps_list": draw(st.lists(_POSITIVE, min_size=1)),
        "n_list": draw(n_list),
        "replicates": draw(_COUNT),
        "alpha": draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        "seed": draw(st.integers(0, 2**64 - 1)),
    }
    for key, strategy in (("tol", _POSITIVE), ("max_iter", _COUNT), ("atoms", size)):
        if draw(st.booleans()):
            values[key] = draw(strategy)
    # measure files come together, and only with the discrete scenario
    if scenario is ScenarioKind.DISCRETE_PAIR and draw(st.booleans()):
        values["p_file"], values["q_file"] = draw(_FILE_NAME), draw(_FILE_NAME)
    return values


def _text(value) -> str:
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, list):
        return ", ".join(_text(v) for v in value)
    if isinstance(value, float):
        return ms.fmt17(value)
    return str(value)


def _render(values) -> str:
    return "# drawn config\n" + "".join(f"{k} = {_text(v)}\n" for k, v in values.items())


@_SETTINGS
@hypothesis.given(_config_values())
def test_rendered_config_parses_back_equal(values):
    solver = {k: values[k] for k in ("tol", "max_iter") if k in values}
    want = ExperimentConfig(
        kind=values["kind"], scenario=values["scenario"], dims=tuple(values["dims"]),
        eps_list=tuple(values["eps_list"]), n_list=tuple(values["n_list"]),
        replicates=values["replicates"], alpha=values["alpha"], seed=values["seed"],
        solver=SolverConfig(eps=values["eps_list"][0], **solver),
        **{k: values[k] for k in ("atoms", "p_file", "q_file") if k in values},
    )
    assert hz.parse_config(_render(values)) == want


def test_every_config_key_is_covered():
    assert set(hz._CONFIG_KEYS) == {*_CONVERTED_KEYS, "p_file", "q_file"}


@pytest.mark.parametrize("key", _CONVERTED_KEYS)
@_SETTINGS
@hypothesis.given(_config_values(), st.text("xyz_+-.,:", min_size=1))
def test_unconvertible_value_names_its_key(key, values, junk):
    # no digits and none of the letters of inf or nan: no converter accepts it
    with pytest.raises(ConfigError) as info:
        hz.parse_config(_render({**values, key: junk}))
    assert key in str(info.value)


@st.composite
def _measure(draw):
    n = draw(st.integers(1, 8))
    points = draw(arrays(np.float64, (n, draw(st.integers(1, 3))),
                         elements=st.floats(allow_nan=False, allow_infinity=False)))
    w = draw(arrays(np.float64, n, elements=st.one_of(st.just(0.0), st.floats(0.0, 1.0))))
    if w.sum() == 0.0:
        w[draw(st.integers(0, n - 1))] = 1.0
    return ms.DiscreteMeasure(points, w / w.sum())


@_SETTINGS
@hypothesis.given(_measure())
def test_written_measure_parses_back_bit_for_bit(tmp_path_factory, measure):
    path = tmp_path_factory.mktemp("measure") / "m.csv"
    ms.write_measure(measure, path)
    back = ms.parse_measure(path.read_text(encoding="utf-8"))
    assert back.points.tobytes() == measure.points.tobytes()
    assert back.weights.tobytes() == measure.weights.tobytes()
