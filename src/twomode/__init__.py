"""Disentangling driven two-coupled-mode evolution into closed factors,
with brute-force verification on a truncated Fock space."""

from .fock import (FockSpace, TruncationError, annihilator, basis_state,
                   coherent_state, displacement_operator, interior_mask,
                   make_space, schwinger_lift, vacuum_state)
from .scenario import (AllConstantScenario, ConstantDrive,
                       ConstantPhaseScenario, CosineDrive,
                       FresnelNormScenario, GeneralPhaseScenario,
                       IsotropicConstantScenario, LinearPhaseScenario,
                       LogRhoScenario, QuadraticPhaseScenario,
                       RhoConstantScenario, RotatingDrive, TabulatedScenario)
from .special import SeriesDivergence, fresnel_c, kummer_1f1
from .riccati import (ChartSingularity, DisentangledFactors, alt_factors,
                      alternative_from_standard, closed_factors,
                      factors_on_grid, solve_riccati_numeric)
from .smatrix import (SMatrix2, smatrix_closed, smatrix_from_factors,
                      smatrix_numeric_grid)
from .evolution import (CoherentAmplitudes, CoherentStateSpec, assemble_U,
                        c_coefficients, coherent_evolution_closed,
                        coherent_spec, ladder_eigenvalue_checks)
from .oracle import brute_force_propagator, brute_force_smatrix

__version__ = "0.1.0"
