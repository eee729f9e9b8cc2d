#!/usr/bin/env python3
"""Lagrangian-plane walkthrough: frames, vertical rotations, invariance.

Builds the coordinate planes and the diagonal, computes their rotations
onto i R^n, constructs a measure invariant along each plane, and verifies
that the rotated operator matches multiplication by its spectral function.
"""

import numpy as np

from focklab.basis import enumerate_basis
from focklab.indices import HalfIndex
from focklab.lagrangian import LagrangianFrame, assemble_l_real_coderivative, l_invariance_test, rotation_defect
from focklab.measures import Horizontal, pushforward, real_gaussian
from focklab.spectral import multiplication_matrix
from focklab.toeplitz import interior_max_norm


def main():
    frames = {
        "horizontal plane   (1, 0)": np.array([[1.0, 0.0]]),
        "vertical plane     (0, 1)": np.array([[0.0, 1.0]]),
        "diagonal           (1, 1)": np.array([[1.0, 1.0]]),
        "tilted             (2, 1)": np.array([[2.0, 1.0]]),
    }
    rho = real_gaussian(1)
    basis = enumerate_basis(1, 12)
    k = HalfIndex.from_doubled((2,))
    for name, vectors in frames.items():
        frame = LagrangianFrame(vectors)
        x = frame.rotation
        mu = pushforward(Horizontal(rho), x)
        inv = l_invariance_test(mu, frame, basis)
        op = assemble_l_real_coderivative(mu, k, frame, basis)
        mult = multiplication_matrix(rho, k, basis)
        residual = interior_max_norm(op.entries - mult.entries, basis)
        print(
            f"{name}: rotation={np.round(x, 6).tolist()} defect={rotation_defect(frame, x):.1e}  "
            f"invariant={inv.invariant}  diag-residual={residual:.2e}"
        )


if __name__ == "__main__":
    main()
