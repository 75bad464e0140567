"""Exact equilibria for checks against a reference that is not the code.

The Solov'ev flux (Solov'ev 1968, Sov. Phys. JETP 26, 400)

    psi = -(c/8)(1 - s)(r^2 - R0^2)^2 - (c/2) s r^2 z^2

solves Delta* psi = -c r^2, so A is constant and B = 0.  Its only critical
point is the axis (R0, 0), where psi = 0; near it the surfaces are ellipses
of elongation kappa for s = 1 / (1 + kappa^2).  With R0 2.5, kappa 1.5, c 1
and the boundary level psi_b = -0.2 the plasma is about 0.6 m wide and
0.9 m tall, inside the twin's box (r 2..3, z -1.2..1.2).

The surface integrals are sums over equally spaced angles theta about the
axis.  With rho(theta) the distance from the axis to the surface along the
ray, the area element gives dl / |grad psi| = rho dtheta / |d psi / d rho|,
so the sums converge spectrally on the smooth closed surfaces.
"""

import numpy as np

R0, KAPPA, C, PSI_B = 2.5, 1.5, 1.0, -0.2
S = 1.0 / (1.0 + KAPPA ** 2)
AXIS = (R0, 0.0)


def solovev_psi(r, z):
    return (-(C / 8) * (1 - S) * (r ** 2 - R0 ** 2) ** 2
            - (C / 2) * S * r ** 2 * z ** 2)


def solovev_grad(r, z):
    """(d psi / dr, d psi / dz)."""
    return (-(C / 2) * (1 - S) * (r ** 2 - R0 ** 2) * r - C * S * r * z ** 2,
            -C * S * r ** 2 * z)


def solovev_surface_integrals(psibar, n_angles=4096):
    """Per level of ``psibar`` (psi = psibar psi_b), the closed integrals of
    dl / (r^2 B_p) and of dl / B_p, B_p = |grad psi| / r, over the exact
    surface, each summed over ``n_angles`` angles."""
    theta = 2 * np.pi * np.arange(n_angles) / n_angles
    cos, sin = np.cos(theta), np.sin(theta)
    target = np.asarray(psibar, dtype=np.float64)[:, None] * PSI_B
    # Newton along each ray from the axis's ellipse; psi falls
    # monotonically along every ray past the boundary surface, and six
    # steps reach the last bits (the seventh moves rho by < 2e-14)
    rho = np.sqrt(target / (-(C / 2) * R0 ** 2
                            * ((1 - S) * cos ** 2 + S * sin ** 2)))
    for _ in range(6):
        r, z = R0 + rho * cos, rho * sin
        gr, gz = solovev_grad(r, z)
        rho = rho - (solovev_psi(r, z) - target) / (gr * cos + gz * sin)
    r, z = R0 + rho * cos, rho * sin
    gr, gz = solovev_grad(r, z)
    dl_grad = rho / np.abs(gr * cos + gz * sin) * (2 * np.pi / n_angles)
    return (dl_grad / r).sum(axis=1), (dl_grad * r).sum(axis=1)
