"""Direct free-boundary solve: plasma-current source assembly, total-current
scaling and the Picard fixed point producing reference equilibria."""

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from . import fem
from .basis import ProfileExpansion, SplineBasis
from .errors import (ConvergenceError, DivergentLambdaError,
                     EmptySourceError, GsReconError, MeshParseError)
from .geometry import PlasmaDomain, make_plasma_domain, quadrature_points
from .mesh import interpolation_matrix, point_in_polygon
from .textio import LineReader, write_rows


@dataclass
class MachineParams:
    r0: float
    b0: float
    ip: float
    mu0: float = fem.MU0

    def __post_init__(self):
        if not (0 < self.r0 < np.inf and 0 < self.mu0 < np.inf):
            raise ValueError("r0 and mu0 must be positive")
        if not 0 < abs(self.ip) < np.inf:
            raise ValueError("Ip must be nonzero")
        if not np.isfinite(self.b0):
            raise ValueError("b0 must be finite")


@dataclass(frozen=True)
class Iteration:
    """One step of :func:`picard`: its ``residual``, the scale ``lam``, the
    plasma ``domain`` that normalized its input (None for the cold start)
    and, for a reconstruction, the free coefficients ``u`` and the
    ``ne_coeffs`` the next step starts from and its solves' ``costs``."""
    lam: float
    domain: PlasmaDomain = None
    u: np.ndarray = None
    ne_coeffs: np.ndarray = None
    costs: dict = field(default_factory=dict)
    residual: float = None


@dataclass
class Equilibrium:
    """A forward solve or a reconstruction: its flux, plasma domain, profiles
    and their scale ``lam``, and the :class:`Iteration` ``records`` (none
    when loaded) that ``residuals``, ``lam_history`` and ``costs`` read."""
    psi: np.ndarray
    domain: object
    profiles: ProfileExpansion
    lam: float
    machine: MachineParams
    records: list = field(default_factory=list)
    converged: bool = True
    iterations: int = 0
    error: str = None
    residuals = property(lambda self: [r.residual for r in self.records])
    lam_history = property(lambda self: [r.lam for r in self.records])
    costs = property(lambda self: dict(self.records[-1].costs) if
                     self.records and self.error is None else {})


class SourceQuadrature:
    """The mid-edge rule of :func:`geometry.quadrature_points` (one point
    per mesh edge) with its operators and the one cold start.

    ``P`` is the sparse (Q, n) interpolation matrix to the midpoints (two
    0.5 entries per row), ``P @ psibar`` the normalized flux there.  ``Pab``
    is the (2n, Q) stack of Pa = P^T diag(w r/r0) over Pb = P^T diag(w
    r0/r), which scatter the values of A and of B at the points onto the
    nodal load: one product gives both, each row summed as alone.  ``Pa``
    and ``Pb`` are its two row blocks, views of its arrays.
    ``cold_psibar`` (read-only) is 0 at the points inside the limiter
    contour and 2 outside: the first source of both Picard loops, whose
    flux has no axis.
    """

    def __init__(self, mesh, r0):
        (self.qp_nodes, self.qp_bary, self.qp_w, self.qp_r,
         self.qp_z) = quadrature_points(mesh)
        self.P = interpolation_matrix(self.qp_nodes, self.qp_bary,
                                      mesh.n_nodes)
        pt = self.P.T.tocsr()
        self.Pab = sp.vstack([pt, pt], format="csr")
        self.Pa, self.Pb = (sp.csr_matrix((data, indices, pt.indptr),
                                          shape=pt.shape, copy=False)
                            for data, indices in zip(
                                np.split(self.Pab.data, 2),
                                np.split(self.Pab.indices, 2)))
        self.Pa.data *= (self.qp_w * self.qp_r / r0)[pt.indices]
        self.Pb.data *= (self.qp_w * r0 / self.qp_r)[pt.indices]
        self.cold_psibar = np.where(point_in_polygon(np.column_stack(
            [self.qp_r, self.qp_z]), mesh.limiter), 0.0, 2.0)
        self.cold_psibar.flags.writeable = False


def mesh_operators(mesh, mu0, r0):
    """(Factorization, SourceQuadrature) of ``mesh``, built once per mesh,
    mu0 and r0, held in the mesh's cache and shared by every forward solve
    and reconstruction set-up."""
    key = ("operators", mu0, r0)
    if key not in mesh._cache:
        stiff = fem.impose_dirichlet(fem.assemble_stiffness(mesh, mu0),
                                     mesh.boundary)
        mesh._cache[key] = (fem.factorize(stiff), SourceQuadrature(mesh, r0))
    return mesh._cache[key]


def lambda_from_integral(ip, integral, size):
    """ip / integral; DivergentLambdaError unless the integral exceeds
    1e-14 of ``size``, the sum of its terms' magnitudes."""
    if abs(integral) <= 1e-14 * size:
        raise DivergentLambdaError(
            "plasma-current integral vanishes; cannot scale to Ip")
    return ip / integral


def assemble_source_vector(squad, psibar_qp, a_vals, b_vals):
    """Nodal load Pa A + Pb B of A and B at the plasma points, over all
    rows; its sum is the current integral that lambda scales to Ip."""
    mask = psibar_qp <= 1.0
    if not np.any(mask):
        raise EmptySourceError("plasma region contains no quadrature point")
    return (squad.Pa @ np.where(mask, a_vals, 0.0)
            + squad.Pb @ np.where(mask, b_vals, 0.0))


def assemble_source_matrix(squad, psibar_qp, basis):
    """n x (2m - 2) matrix mapping the free profile coefficients (all but
    the last of A and of B, pinned by A(1) = B(1) = 0) to the load vector:
    column j is Pa phi_j(psibar), column m - 1 + j Pb phi_j(psibar),
    phi_j taken as zero outside the plasma region: there it is evaluated
    at psibar = 1, where the clamped knots zero every free phi_j."""
    mask = psibar_qp <= 1.0
    if not np.any(mask):
        raise EmptySourceError("plasma region contains no quadrature point")
    load = squad.Pab @ basis.eval_many(np.where(mask, psibar_qp, 1.0))
    n, k = len(load) // 2, basis.m - 1
    Y = np.empty((n, 2 * k))
    Y[:, :k], Y[:, k:] = load[:n, :k], load[n:, :k]
    return Y


ANDERSON_DEPTH = 3


def picard(step, psi, tol, max_iter, records):
    """Anderson-mixed fixed-point iteration of psi = step(psi).

    ``step(psi, rec)`` returns the next flux g and its :class:`Iteration`,
    ``rec`` being the previous one (None at first); each is appended to
    ``records`` with its relative residual |g - psi| / |psi|, 1 for a step
    from psi = 0 (|g - psi| / |g| for any g != 0, so a cold start never
    stops at its first step), and the loop stops once that is at most
    ``tol`` or after ``max_iter`` steps, returning the last g.  Otherwise
    the next iterate is the type-II Anderson update g - dG gamma (Walker &
    Ni 2011), r = g - psi, gamma the least-squares fit dR gamma ~ r over the
    differences of the last ``ANDERSON_DEPTH`` (r, g) pairs, whose history
    is cleared while psi is zero and whenever |r| grows.  A GsReconError
    from ``step`` propagates with the flux it was called on as its ``psi``;
    a NaN or negative ``tol`` or a ``max_iter`` below one is a ValueError.
    """
    if not (tol >= 0 and max_iter >= 1):
        raise ValueError(f"need tol >= 0 and max_iter >= 1, "
                         f"got tol={tol!r}, max_iter={max_iter!r}")
    d_r, d_g, prev, rec = [], [], None, None   # prev: (r, g, |r|), psi != 0
    for it in range(max_iter):
        try:
            g, rec = step(psi, rec)
        except GsReconError as exc:
            exc.psi = psi
            raise
        r = g - psi
        norm, r_norm = np.linalg.norm(psi), np.linalg.norm(r)
        rec = replace(rec, residual=r_norm / norm if norm > 0 else 1.0)
        records.append(rec)
        if rec.residual <= tol or it == max_iter - 1:
            return g
        if norm == 0 or (prev is not None and r_norm > prev[2]):
            d_r, d_g = [], []
        elif prev is not None:
            d_r = (d_r + [r - prev[0]])[-ANDERSON_DEPTH:]
            d_g = (d_g + [g - prev[1]])[-ANDERSON_DEPTH:]
        prev = (r, g, r_norm) if norm > 0 else None
        psi = g
        if d_r:
            gamma = np.linalg.lstsq(np.column_stack(d_r), r, rcond=None)[0]
            psi = g - np.column_stack(d_g) @ gamma


def forward_fixed_point(mesh, machine, a_func, b_func, g_d, tol=1e-6,
                        max_iter=30, basis=None):
    """Picard iteration of the free-boundary problem with known profiles.

    a_func and b_func are callables on [0,1] (tabulated references should be
    wrapped with a monotone cubic interpolant by the caller).  A g_d without
    one finite value per boundary node raises ValueError before any solve.
    Raises :class:`ConvergenceError` when max_iter is exhausted or an
    iteration fails (the failure is chained as its cause).
    """
    fact, squad = mesh_operators(mesh, machine.mu0, machine.r0)
    lift = fact.lift(g_d)

    def picard_map(pq, domain=None):
        x = np.clip(pq, 0.0, 1.0)
        y = assemble_source_vector(squad, pq, np.asarray(a_func(x), float),
                                   np.asarray(b_func(x), float))
        lam = lambda_from_integral(machine.ip, float(y.sum()),
                                   np.abs(y).sum())
        return fact.solve(lam * y) + lift, Iteration(lam, domain)

    def step(psi, _):
        domain = make_plasma_domain(mesh, psi)
        return picard_map(squad.P @ domain.normalize(psi), domain)

    # the cold start's solve, not an iteration: it has no record
    psi, records = picard_map(squad.cold_psibar)[0], []
    try:
        psi = picard(step, psi, tol, max_iter, records)
    except GsReconError as exc:
        raise ConvergenceError(f"iteration {len(records) + 1}: {exc}") from exc
    if records[-1].residual > tol:
        raise ConvergenceError(f"no convergence after {max_iter} iterations "
                               f"(last residual {records[-1].residual:.3e})")
    if basis is None:
        basis = SplineBasis()
    xs = np.linspace(0.0, 1.0, 201)
    profiles = ProfileExpansion(basis, basis.fit(xs, a_func(xs)),
                                basis.fit(xs, b_func(xs)))
    return Equilibrium(psi, make_plasma_domain(mesh, psi), profiles,
                       records[-1].lam, machine, records, True, len(records))


# ---------------------------------------------------------------------------
# Equilibrium file IO
# ---------------------------------------------------------------------------

def save_equilibrium(eq, path):
    """Write ``eq`` as text; ValueError if it has no plasma domain."""
    if eq.domain is None:
        raise ValueError(f"no plasma domain to save: {eq.error}")
    m, d, p = eq.machine, eq.domain, eq.profiles
    rows = [["r0", m.r0], ["b0", m.b0], ["ip", m.ip], ["mu0", m.mu0],
            ["lambda", eq.lam], ["converged", eq.converged],
            ["iterations", eq.iterations], ["psi_a", d.psi_a],
            ["psi_b", d.psi_b], ["mode", d.mode], ["axis", *d.axis],
            ["degree", p.basis.degree], ["coeff_a", *p.a], ["coeff_b", *p.b]]
    if p.c is not None:
        rows.append(["coeff_c", *p.c])
    write_rows(path, [*rows, ["psi", len(eq.psi)], *([v] for v in eq.psi)])


# fields of an equilibrium file and their value counts (None: any count)
EQUILIBRIUM_FIELDS = {"r0": 1, "b0": 1, "ip": 1, "mu0": 1, "lambda": 1,
                      "psi_a": 1, "psi_b": 1, "mode": 1, "axis": 2, "psi": 1,
                      "coeff_a": None, "coeff_b": None, "coeff_c": None,
                      "converged": 1, "iterations": 1, "degree": 1}
# optional fields: integers below these bounds
OPTIONAL_INTS = {"converged": 2, "iterations": np.inf, "degree": np.inf}


def load_equilibrium(path, mesh=None, basis=None):
    """Read a file written by :func:`save_equilibrium`, its lines in any
    order.  Raises :class:`MeshParseError` for a line the
    :class:`~gsrecon.textio.LineReader` rule rejects, an unknown, repeated
    or missing field, a mode other than ``limiter`` or ``xpoint``, a psi
    block whose length is not the node count of ``mesh`` (when given), a
    ``basis`` (when given) whose degree or dimension is not the file's and
    values the equilibrium rejects.  Files without ``converged`` and
    ``iterations`` load as converged after 0 iterations, and without
    ``degree`` as cubic.
    """
    rd = LineReader(path)
    data = {}
    required = EQUILIBRIUM_FIELDS.keys() - {"coeff_c", *OPTIONAL_INTS}
    while rd.line < len(rd.lines) or not required <= data.keys():
        key, rest = rd.record([k for k in EQUILIBRIUM_FIELDS if k not in data])
        if key == "psi":
            n = rd.count(rest)
            if mesh is not None and n != mesh.n_nodes:
                rd.fail(f"psi block has {n} values for a mesh of "
                        f"{mesh.n_nodes} nodes")
            data[key] = rd.block(n, 1, "psi").ravel()
        elif key == "mode":
            if rest not in (["limiter"], ["xpoint"]):
                rd.fail(f"mode must be limiter or xpoint, not {rest}")
            data[key] = rest[0]
        else:
            data[key] = rd.values(rest, EQUILIBRIUM_FIELDS[key],
                                  OPTIONAL_INTS.get(key))
    try:
        machine = MachineParams(*(data[k][0] for k in ("r0", "b0", "ip",
                                                       "mu0")))
        shape = (data.get("degree", [3])[0], len(data["coeff_a"]))
        if basis is None:
            basis = SplineBasis(*shape)
        elif (basis.degree, basis.m) != shape:
            raise MeshParseError(f"degree and dimension {shape} do not fit "
                                 f"the basis {(basis.degree, basis.m)}")
        prof = ProfileExpansion(basis, data["coeff_a"], data["coeff_b"],
                                data.get("coeff_c"))
    except ValueError as exc:
        raise MeshParseError(f"bad equilibrium: {exc}") from exc
    domain = PlasmaDomain(data["psi_a"][0], data["psi_b"][0],
                          tuple(data["axis"]), mode=data["mode"])
    return Equilibrium(data["psi"], domain, prof, data["lambda"][0], machine,
                       converged=bool(data.get("converged", [True])[0]),
                       iterations=data.get("iterations", [0])[0])
