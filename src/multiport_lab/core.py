"""Complex scattering matrices for small linear-optical multiports.

A device with n ports is a dense n x n complex128 matrix S acting on column
vectors of port amplitudes: S[i, j] is the amplitude scattered from input
port j to output port i, and the same index refers to the ingoing and the
outgoing mode of a port.  Ports carry string labels ("p1".."pn" unless given)
so composite networks can reference them by name.

All values are immutable after construction and every operation is a pure
function, so matrices can be shared freely between sweep workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DimensionError, PortError, ValidationError

#: Tolerance for unitarity deviation ||S^dag S - I||_max of constructed devices.
DEFAULT_UNITARITY_TOL = 1e-12


def default_port_labels(n: int) -> tuple[str, ...]:
    """Standard labels "p1".."pn"."""
    return tuple(f"p{i + 1}" for i in range(n))


@dataclass(frozen=True, eq=False)
class ScatteringMatrix:
    """Square complex scattering matrix with distinct, named ports."""

    matrix: np.ndarray
    port_labels: tuple[str, ...] = ()

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"scattering matrix must be square, got shape {m.shape}")
        if m.shape[0] == 0:
            raise DimensionError("scattering matrix needs at least one port")
        if not np.all(np.isfinite(m)):
            raise ValidationError("scattering matrix entries must be finite")
        labels = tuple(self.port_labels) if self.port_labels else default_port_labels(m.shape[0])
        if len(labels) != m.shape[0]:
            raise DimensionError(
                f"{len(labels)} port labels for a {m.shape[0]}-port matrix"
            )
        if len(set(labels)) != len(labels):
            raise ValidationError(f"port labels must be distinct, got {labels}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "port_labels", labels)

    @property
    def n_ports(self) -> int:
        return self.matrix.shape[0]

    def port_index(self, label: str) -> int:
        try:
            return self.port_labels.index(label)
        except ValueError:
            raise PortError(f"no port {label!r}; ports are {list(self.port_labels)}") from None

    def relabeled(self, port_labels: Sequence[str]) -> "ScatteringMatrix":
        return ScatteringMatrix(self.matrix, tuple(port_labels))


def make_beam_splitter_4port() -> ScatteringMatrix:
    """4-port 50:50 beam-splitter; ports 1,2 couple only to ports 3,4 (feed-forward)."""
    s = 1.0 / np.sqrt(2.0)
    m = np.array(
        [
            [0.0, 0.0, s, s],
            [0.0, 0.0, s, -s],
            [s, s, 0.0, 0.0],
            [s, -s, 0.0, 0.0],
        ]
    )
    return ScatteringMatrix(m)


def make_hadamard2() -> ScatteringMatrix:
    """2x2 Hadamard, the feed-forward reduction of the 50:50 beam-splitter."""
    s = 1.0 / np.sqrt(2.0)
    return ScatteringMatrix(np.array([[s, s], [s, -s]]))


def make_grover_coin(d: int) -> ScatteringMatrix:
    """d-port Grover coin: every diagonal entry 2/d - 1, every off-diagonal 2/d.

    Real, symmetric, unitary, and permutation symmetric.  Defined for d >= 3.
    """
    if d < 3:
        raise DimensionError(f"Grover coin requires d >= 3, got d={d}")
    m = np.full((d, d), 2.0 / d)
    np.fill_diagonal(m, 2.0 / d - 1.0)
    return ScatteringMatrix(m)


class UnitarityCheck(NamedTuple):
    deviation: float
    ok: bool


def check_unitary(S: ScatteringMatrix, tol: float = DEFAULT_UNITARITY_TOL) -> UnitarityCheck:
    """Max-norm deviation ||S^dag S - I||_max and whether it is within tol."""
    n = S.n_ports
    dev = float(np.max(np.abs(S.matrix.conj().T @ S.matrix - np.eye(n))))
    return UnitarityCheck(deviation=dev, ok=dev <= tol)
