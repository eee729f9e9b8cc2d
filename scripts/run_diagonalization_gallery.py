#!/usr/bin/env python3
"""Convergence study: horizontal symbols against their spectral functions.

For each gallery symbol and derivative order, prints the full-block
entrywise residual (rounding: both sides integrate rho on the same nodes),
the kernel-route Berezin residual (truncation-limited, decays with D), and
the gap between the truncated operator norm and sup |gamma| over the
sampled gamma.
"""

import argparse
from pathlib import Path

from focklab.basis import enumerate_basis
from focklab.indices import HalfIndex
from focklab.measures import RealAtoms, real_dirac, real_gaussian
from focklab.spectral import diagonalization_residual, gamma_samples, norm_and_spectrum

GALLERY = {
    "dirac(0)": real_dirac([0.0]),
    "dirac(0.7)": real_dirac([0.7]),
    "gaussian(1)": real_gaussian(1),
    "two-atom": RealAtoms([[-0.4], [0.9]], [0.6, 0.4]),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degrees", type=int, nargs="+", default=[8, 10, 12, 14, 16])
    parser.add_argument("--orders", type=int, nargs="+", default=[0, 2], help="doubled derivative orders 2k")
    parser.add_argument("--out", type=Path, default=None, help="optional CSV path for the table")
    args = parser.parse_args()

    rows = [("symbol", "2k", "D", "entry_residual", "kernel_residual", "norm_gap")]
    for name, rho in GALLERY.items():
        for two_k in args.orders:
            k = HalfIndex.from_doubled((two_k,))
            samples = gamma_samples(rho, k)
            for d in args.degrees:
                basis = enumerate_basis(1, d)
                rep = diagonalization_residual(rho, k, basis)
                spectrum = norm_and_spectrum(rep.toeplitz, samples)
                gap = abs(spectrum.operator_norm - spectrum.gamma_sup)
                rows.append((name, two_k, d, f"{rep.residual:.3e}", f"{rep.berezin_gap:.3e}", f"{gap:.4f}"))
                print(
                    f"{name:12s} 2k={two_k}  D={d:2d}  entry={rep.residual:.3e}  "
                    f"kernel={rep.berezin_gap:.3e}  norm_gap={gap:.4f}"
                )
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text("\n".join(",".join(str(c) for c in row) for row in rows) + "\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
