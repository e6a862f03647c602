import numpy as np
import pytest
from numpy.testing import assert_allclose

from multiport_lab import (
    DimensionError,
    ScatteringMatrix,
    ValidationError,
    check_unitary,
    make_beam_splitter_4port,
    make_grover_coin,
    make_hadamard2,
)


@pytest.mark.parametrize("d", range(3, 17))
def test_grover_coin_entries(d):
    S = make_grover_coin(d)
    expected = np.full((d, d), 2.0 / d) - np.eye(d)
    assert_allclose(S.matrix, expected, atol=0)


@pytest.mark.parametrize("d", range(3, 17))
def test_grover_coin_unitary(d):
    res = check_unitary(make_grover_coin(d))
    assert res.ok
    assert res.deviation <= 1e-12


@pytest.mark.parametrize("d", [0, 1, 2, -3])
def test_grover_coin_rejects_small_dimension(d):
    with pytest.raises(DimensionError):
        make_grover_coin(d)


def test_beam_splitter_routes_inputs_to_outputs():
    S = make_beam_splitter_4port()
    s = 1.0 / np.sqrt(2.0)
    # inputs on ports 1,2 exit on ports 3,4 and vice versa; no reflection
    expected = np.array(
        [
            [0, 0, s, s],
            [0, 0, s, -s],
            [s, s, 0, 0],
            [s, -s, 0, 0],
        ]
    )
    assert_allclose(S.matrix, expected, atol=0)
    assert check_unitary(S).ok


def test_hadamard2_matches_beam_splitter_block():
    H = make_hadamard2()
    S = make_beam_splitter_4port()
    assert_allclose(H.matrix, S.matrix[2:, :2], atol=0)


def test_scattering_matrix_default_labels():
    S = make_grover_coin(4)
    assert S.port_labels == ("p1", "p2", "p3", "p4")
    assert S.port_index("p3") == 2


def test_scattering_matrix_rejects_nonsquare():
    with pytest.raises(DimensionError):
        ScatteringMatrix(np.zeros((2, 3)))


def test_scattering_matrix_rejects_label_mismatch():
    with pytest.raises(DimensionError):
        ScatteringMatrix(np.eye(3), port_labels=("a", "b"))


def test_scattering_matrix_rejects_duplicate_labels():
    with pytest.raises(ValidationError):
        ScatteringMatrix(np.eye(2), port_labels=("a", "a"))


def test_scattering_matrix_rejects_nonfinite_entries():
    with pytest.raises(ValidationError):
        ScatteringMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_scattering_matrix_is_read_only():
    S = make_grover_coin(3)
    with pytest.raises(ValueError):
        S.matrix[0, 0] = 0.0


def test_relabeled_keeps_matrix():
    S = make_hadamard2().relabeled(("in", "out"))
    assert S.port_labels == ("in", "out")
    assert_allclose(S.matrix, make_hadamard2().matrix)
