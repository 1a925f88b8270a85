"""The shared CSV writer against numpy's savetxt, and the array orbit table."""

import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pawclock.classical import (
    OrbitParams,
    classical_orbit,
    orbit_table,
    surviving_configurations,
    write_orbit_csv,
)
from pawclock import table
from pawclock.marginals import GridAxis, marginal_phase_space
from pawclock.pawstate import (
    balanced_two_level_state,
    dense_family_state,
    large_j_pair_state,
    spin3_pair_state,
)
from pawclock.table import _BLOCK_ROWS, write_table

# Values whose text is easy to get wrong: both zeros, NaNs of either sign and
# another payload, both infinities, subnormals, the extremes of the range.
SPECIALS = np.concatenate([
    [0.0, -0.0, math.inf, -math.inf, 5e-324, -1.5e-310, 2.2250738585072014e-308,
     1.7976931348623157e308, 0.1, 1.0 / 3.0, -2.5, 801.0],
    np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001],
             dtype=np.uint64).view(np.float64),
])


def savetxt_bytes(path: Path, names, columns) -> bytes:
    table = np.column_stack(columns)
    np.savetxt(path, table, fmt="%.17g", delimiter=",", newline="\n",
               header=",".join(names), comments="")
    return path.read_bytes()


def write_table_bytes(path: Path, names, columns) -> bytes:
    write_table(path, names, columns)
    return path.read_bytes()


@given(rows=st.one_of(st.integers(0, 40),
                      st.sampled_from([_BLOCK_ROWS - 1, _BLOCK_ROWS,
                                       _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1])),
       width=st.integers(1, 4),
       pool=st.lists(st.floats(width=64), max_size=8),
       distinct=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_write_table_matches_savetxt(rows, width, pool, distinct, seed):
    """Same bytes as savetxt, for heavy repeats and for all-distinct bit patterns."""
    rng = np.random.default_rng(seed)
    values = np.concatenate([np.array(pool, dtype=float), SPECIALS])
    columns = []
    for _ in range(width):
        if distinct:
            bits = rng.integers(-2 ** 63, 2 ** 63 - 1, size=rows, dtype=np.int64)
            columns.append(bits.view(np.float64))
        else:
            columns.append(values[rng.integers(len(values), size=rows)])
    names = [f"c{index}" for index in range(width)]
    with tempfile.TemporaryDirectory() as scratch:
        expected = savetxt_bytes(Path(scratch) / "expected.csv", names, columns)
        got = write_table_bytes(Path(scratch) / "got.csv", names, columns)
    assert got == expected


def test_write_table_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_table(tmp_path / "ragged.csv", ["a", "b"], [np.zeros(3), np.zeros(4)])
    assert not (tmp_path / "ragged.csv").exists()


@pytest.mark.parametrize("names, columns", [
    (["a"], [np.zeros(3), np.ones(3)]),
    (["a", "b", "c"], [np.zeros(3), np.ones(3)]),
    (["a"], [np.zeros((3, 2))]),
    (["a", "b"], [np.zeros(3), np.zeros((3, 2))]),
    (["a"], [np.float64(1.0)]),
], ids=["fewer-names", "more-names", "2-D", "2-D-second", "0-D"])
def test_write_table_rejects_malformed_input_before_writing(tmp_path, names, columns):
    """A malformed table raises and leaves no file behind."""
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError):
        write_table(path, names, columns)
    assert not path.exists()


def spy_formatting(monkeypatch) -> list[int]:
    """Record how many values each call of the per-column formatter formats."""
    counts = []
    distinct_text = table._distinct_text

    def spy(column):
        text, inverse = distinct_text(column)
        counts.append(len(text))
        return text, inverse

    monkeypatch.setattr(table, "_distinct_text", spy)
    return counts


def default_phase_space_columns():
    """The Q, P and value columns of the default ``figure marg-pq`` CSV."""
    grid = marginal_phase_space(balanced_two_level_state(170))
    q_axis, p_axis = grid.axes
    return [np.repeat(q_axis.values, p_axis.count), np.tile(p_axis.values, q_axis.count),
            grid.values.ravel()]


def test_each_distinct_value_is_formatted_once_per_table(tmp_path, monkeypatch):
    """Repeats in different blocks share one text: 5 values over 3 blocks format 5 times."""
    counts = spy_formatting(monkeypatch)
    column = (np.arange(3 * _BLOCK_ROWS) % 5).astype(float)
    got = write_table_bytes(tmp_path / "got.csv", ["c"], [column])
    assert counts == [5]
    assert got == savetxt_bytes(tmp_path / "expected.csv", ["c"], [column])


def test_default_phase_space_table_formats_its_distinct_values(tmp_path, monkeypatch):
    counts = spy_formatting(monkeypatch)
    write_table(tmp_path / "marg-pq.csv", ["Q", "P", "value"], default_phase_space_columns())
    assert counts == [801, 801, 102273]


def test_default_phase_space_table_write_memory(tmp_path):
    """The writer's peak is within 2.5x the bytes of the float columns it writes."""
    columns = default_phase_space_columns()
    tracemalloc.start()
    try:
        write_table(tmp_path / "marg-pq.csv", ["Q", "P", "value"], columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * sum(column.nbytes for column in columns)


def test_phase_space_csv_with_repeats_across_blocks_matches_savetxt(tmp_path):
    """Each Q row is one block of distinct values; the Q = -1 and Q = 1 rows are equal."""
    grid = marginal_phase_space(balanced_two_level_state(10), GridAxis("Q", -1.0, 1.0, 3),
                                GridAxis("P", 0.0, 2.5, _BLOCK_ROWS))
    assert np.array_equal(grid.values[0].view(np.int64), grid.values[2].view(np.int64))
    grid.write_csv(tmp_path / "got.csv")
    q_axis, p_axis = grid.axes
    expected = savetxt_bytes(tmp_path / "expected.csv", ["Q", "P", "value"],
                             [np.repeat(q_axis.values, p_axis.count),
                              np.tile(p_axis.values, q_axis.count), grid.values.ravel()])
    assert (tmp_path / "got.csv").read_bytes() == expected


# ---------------------------------------------------------------------------
# orbit table
# ---------------------------------------------------------------------------

ORBIT_CASES = [
    (spin3_pair_state, 64),
    (lambda: dense_family_state(20), 256),
    (lambda: dense_family_state(10), 37),
    (lambda: large_j_pair_state(120), 100),
]


@pytest.mark.parametrize("make_state, samples", ORBIT_CASES)
def test_orbit_table_equals_classical_orbit_bitwise(make_state, samples):
    """Each level's block of rows is bit for bit the orbit classical_orbit samples
    with eta = M*omega and phi0 = 0."""
    state = make_state()
    table = np.column_stack(orbit_table(state, samples=samples))
    levels = surviving_configurations(state)
    assert table.shape == (len(levels) * samples, 6)
    m_omega = state.mass * state.oscillator.omega
    t_grid = np.linspace(0.0, 2.0 * math.pi / m_omega, samples, endpoint=False)
    for index, level in enumerate(levels):
        params = OrbitParams(energy=level.energy_classical, eta=m_omega, phi0=0.0,
                             m_omega=m_omega)
        expected = np.array([[c.energy, c.t, c.q, c.p, c.big_q, c.big_p]
                             for c in classical_orbit(params, t_grid)])
        block = table[index * samples:(index + 1) * samples]
        assert np.array_equal(block.view(np.int64), expected.view(np.int64)), level.n


def test_orbit_family_and_csv_follow_the_table(tmp_path):
    """The CSV of the table is savetxt of the per-level classical_orbit family."""
    state = dense_family_state(10)
    m_omega = state.mass * state.oscillator.omega
    t_grid = np.linspace(0.0, 2.0 * math.pi / m_omega, 16, endpoint=False)
    family = []
    for level in surviving_configurations(state):
        family.extend(classical_orbit(
            OrbitParams(energy=level.energy_classical, eta=m_omega, phi0=0.0,
                        m_omega=m_omega), t_grid))
    rows = np.array([[c.energy, c.t, c.q, c.p, c.big_q, c.big_p] for c in family])
    write_orbit_csv(orbit_table(state, samples=16), tmp_path / "table.csv")
    assert (tmp_path / "table.csv").read_bytes() == savetxt_bytes(
        tmp_path / "expected.csv", ["E", "t", "q", "p", "Q", "P"], rows.T)


def test_write_orbit_csv_of_no_configs_is_the_header(tmp_path):
    write_orbit_csv(orbit_table(spin3_pair_state(), samples=0), tmp_path / "empty.csv")
    assert (tmp_path / "empty.csv").read_text() == "E,t,q,p,Q,P\n"
