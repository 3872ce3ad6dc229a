"""Property test of the model loader: a damaged model file fails cleanly or loads unchanged."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cqforest.data import DataError, SimConfig, simulate  # noqa: E402
from cqforest.forest import ForestConfig, fit, load_forest, save_forest, weight_matrix  # noqa: E402


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    data = simulate(SimConfig(model="aft-multi", n=30, censor_rate_param=0.08, seed=1))
    forest = fit(data, ForestConfig(min_node_size=5, n_trees=3, seed=2))
    path = tmp_path_factory.mktemp("fuzz") / "model.bin"
    save_forest(forest, path)
    return data, path, weight_matrix(forest, data.features).tobytes()


# a damage is one cut of the file, or up to four bytes overwritten; offsets
# are taken modulo the file's length
CUT = st.tuples(st.just("cut"), st.integers(min_value=0), st.just(0)).map(lambda edit: [edit])
SET = st.lists(st.tuples(st.just("set"), st.integers(min_value=0), st.integers(0, 255)), min_size=1, max_size=4)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(damage=CUT | SET)
def test_damaged_model_fails_cleanly_or_loads_unchanged(model, damage):
    data, path, weights = model
    raw = bytearray(path.read_bytes())
    for kind, at, byte in damage:
        if kind == "cut":
            del raw[at % len(raw) :]
        else:
            raw[at % len(raw)] = byte
    damaged = path.with_name("damaged.bin")
    damaged.write_bytes(bytes(raw))
    try:
        forest = load_forest(damaged, data)
    except DataError:
        return
    assert weight_matrix(forest, data.features).tobytes() == weights
