"""Assembly and direct solution of the axisymmetric elliptic operator.

The stiffness matrix carries the 1/(mu0 r) coefficient evaluated at the
triangle centroid (one-point quadrature); Dirichlet conditions are imposed
by replacing boundary rows with identity rows, so the right-hand side can
carry the boundary values directly.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import FactorizationError, StateError

MU0 = 4e-7 * np.pi


@dataclass
class StiffnessMatrix:
    mat: sp.csr_matrix
    dirichlet_applied: bool
    constrained_rows: np.ndarray
    dirichlet_scale: float = 1.0


class Factorization:
    """Reusable sparse LU factorization of the modified stiffness matrix.

    Right-hand sides carry the plain boundary values in the constrained
    rows; the conditioning scale applied to those rows in the matrix is
    reapplied here so callers never see it.
    """

    def __init__(self, lu, n, constrained_rows=None, scale=1.0):
        self._lu = lu
        self.n = n
        self._rows = constrained_rows if constrained_rows is not None \
            else np.array([], dtype=np.int64)
        self._scale = scale

    def solve(self, rhs):
        rhs = np.array(rhs, dtype=np.float64)
        if rhs.shape != (self.n,):
            raise ValueError(f"rhs must have length {self.n}")
        rhs[self._rows] *= self._scale
        return self._lu.solve(rhs)

    def solve_multi(self, columns):
        columns = np.array(columns, dtype=np.float64)
        if columns.shape[0] != self.n:
            raise ValueError(f"columns must have {self.n} rows")
        columns[self._rows, :] *= self._scale
        return self._lu.solve(columns)


def assemble_stiffness(mesh, mu0=MU0):
    """Stiffness matrix of the Neumann problem: entries are the integrals of
    (1/(mu0 r)) grad v_i . grad v_j, assembled triangle by triangle."""
    tris = mesh.triangles
    areas = mesh.areas()
    grads = mesh.grads()                     # (T, 2, 3)
    r_c = mesh.nodes[tris][:, :, 0].mean(axis=1)
    coef = areas / (mu0 * r_c)               # (T,)
    # element matrices: coef * G^T G, shape (T, 3, 3)
    local = coef[:, None, None] * np.einsum("tka,tkb->tab", grads, grads)
    rows = np.repeat(tris, 3, axis=1).reshape(-1)
    cols = np.tile(tris, (1, 3)).reshape(-1)
    K = sp.coo_matrix((local.reshape(-1), (rows, cols)),
                      shape=(mesh.n_nodes, mesh.n_nodes)).tocsr()
    return StiffnessMatrix(K, False, np.array([], dtype=np.int64))


def impose_dirichlet(stiff, boundary_ids):
    """Replace each constrained row by a scaled identity row.

    The scale matches the typical stiffness diagonal so the modified matrix
    stays well conditioned; the factorization reapplies it to the rhs."""
    if stiff.dirichlet_applied:
        raise StateError("Dirichlet rows already imposed")
    boundary_ids = np.asarray(boundary_ids, dtype=np.int64)
    n = stiff.mat.shape[0]
    scale = float(np.abs(stiff.mat.diagonal()).mean()) or 1.0
    keep = np.ones(n)
    keep[boundary_ids] = 0.0
    zero_rows = sp.diags(keep) @ stiff.mat
    ident = sp.coo_matrix((np.full(len(boundary_ids), scale),
                           (boundary_ids, boundary_ids)), shape=(n, n))
    K = (zero_rows + ident).tocsr()
    return StiffnessMatrix(K, True, boundary_ids, scale)


def factorize(stiff):
    if not stiff.dirichlet_applied:
        raise StateError("factorize requires the Dirichlet-modified matrix")
    try:
        # minimum degree on A^T + A (symmetric but for the Dirichlet rows)
        lu = splu(stiff.mat.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise FactorizationError(f"singular stiffness matrix: {exc}") from exc
    return Factorization(lu, stiff.mat.shape[0], stiff.constrained_rows,
                         stiff.dirichlet_scale)
