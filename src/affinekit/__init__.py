"""affinekit: Hamiltonian dynamics of systems of affinely-rigid bodies.

A body is a center of mass x in R^n plus an internal matrix phi in GL+(n);
the toolkit provides the deformation/invariant layer, the menu of
affine-invariant kinetic energies with exact Legendre transforms, invariant
interaction potentials, symplectic time integration with conserved-charge
monitoring, Haar-measure utilities, and a one-dimensional quantum spectral
module in the log coordinate q = ln phi.
"""

from . import checks, dynamics, kinematics, kinetics, matcore, measures, potentials, qdesk
from .dynamics import (ChargeRecord, PhaseState, Trajectory, hamilton_rhs,
                       integrate, noether_charges, poisson_bracket, total_energy)
from .errors import (AffineKitError, ConvergenceFailure, DegenerateMetric,
                     DegenerateSpectrum, DomainOverflow, InvalidInertia,
                     IterationDiverged, MissingParams, NegativeOrientation,
                     NonDifferentiable, ParseError, RunTooLong, SingularInput,
                     StateInvalid, ValidationError)
from .kinematics import (BodyConfig, DeformationTensors, MutualTensors,
                         SystemConfig, VelocityState, act_material, act_spatial,
                         affine_velocity, deformation_tensors, eig_invariants,
                         invariants_K, invariants_M, mutual_tensors)
from .kinetics import (InertiaParams, KineticModel, MomentumState, TildeConstants,
                       inverse_legendre, kinetic_energy, kinetic_hamiltonian,
                       legendre, positivity_check, tilde_constants)
from .matcore import TwoPolarFactors, polar_decompose, two_polar_decompose
from .measures import (haar_density, jacobian_oracle, sample_orthogonal,
                       twopolar_densities)
from .potentials import (BinaryTerm, DilatationTerm, HarmonicFn, InvariantTerm,
                         LennardJonesFn, LogHarmonicFn, PolyFn, PotentialSpec,
                         TranslationalHarmonic, affine_distance, binary_potential,
                         dilatation_stabilizer, potential_gradient, total_potential)
from .qdesk import (QGrid, WaveFunction, build_hamiltonian_1d, gaussian_packet,
                    hermiticity_check, invariant_distribution, shift_action_check,
                    shift_wavefunction, solve_spectrum)
from .scenario import (Scenario, bundled_scenario_path, generate_initial,
                       parse_scenario, scenario_from_dict, scenario_to_dict,
                       serialize_scenario)

__version__ = "0.1.0"
