"""Numerical laboratory for weakly coupled Klein-Gordon chains and their
discrete nonlinear Schrodinger envelope reductions.

The package simulates the periodic chain

    xi_j'' + xi_j + rho xi_j^3 = eps (xi_{j+1} + xi_{j-1})

and the envelope equations that approximate its small-amplitude dynamics,
and measures the quality of that approximation: residual sizes, error
scaling exponents across coupling sweeps, validity horizons, the spectral
normal form of the coupling matrix, and soliton-built approximate breathers.

Import each name from the module that defines it (its ``__all__`` lists
them), for example ``from dklab.solitons import solve_soliton``.
"""

__version__ = "0.1.0"
