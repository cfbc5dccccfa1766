"""Certified low-rank matrix representations via the Cayley chart.

Subpackages by layer:
  matkit    vectorization calculus and sin-theta distances
  cayley    chart on frames with a PD top block, Jacobian, certificates
  symrep    symmetric representation U M U^T and its perturbation theory
  rectrep   rectangular representation M U^T
  cluster   k-means with restarts and assignment-based label alignment
  sbm       stochastic block model pipeline: spectral + one-step Newton
  gaussnewton  the least-squares chart fit both studies run; name fixed by
            the benchmark's layer list
  bicluster biclustering pipeline: co-clustering + least squares
  spiked    spiked covariance: likelihood, Fisher, limit posterior
  cli       the lowrank-rep command line entry point
"""

from .cayley import (
    Certificate,
    GateNotMet,
    Phi,
    StiefelPlus,
    cayley_inverse,
    cayley_jacobian,
    cayley_map,
    gamma_matrix,
    lipschitz_certificate_A,
    taylor_certificate_U,
)
from .matkit import (
    SinThetaResult,
    commutation_matrix,
    duplication_matrix,
    duplication_pinv,
    kron,
    sin_theta,
    spectral_norm,
    unvec,
    unvech,
    vec,
    vech,
)
from .rectrep import (
    ThetaRect,
    dsigma_rect,
    regularity_bound_rect,
    sigma_of_theta_rect,
    taylor_certificate_rect,
    theta_of_sigma_rect,
)
from .symrep import (
    ThetaSym,
    dsigma,
    inverse_perturbation_certificate,
    regularity_bounds,
    sigma_of_theta,
    subspace_equivalence_certificates,
    taylor_certificate_sym,
    theta_of_sigma,
)

__version__ = "0.1.0"
