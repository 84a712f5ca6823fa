"""Desk-scale simulator and verification suite for a block-encoding
Newton-type solver of polynomial systems."""

from .block_encoding import (BlockEncoding, CostLedger, be_amplify,
                             be_from_sparse, be_from_vector, be_of_matrix,
                             be_outer, be_product, be_rescale, be_sum,
                             be_tensor, be_transpose, debug_enabled)
from .classical_oracle import ClassicalTrace, classical_newton, residual
from .errors import (AmplificationOverflowError, CompositionError,
                     ConditioningError, ConfigError, DegenerateReferenceError,
                     DeskScaleError, DimensionMismatchError, InputError,
                     InvariantViolationError, NumericalFailure, ParseError,
                     QnlsError, RescaleRequiredError, SingularJacobianError)
from .poly_system import (MixedSystem, PolynomialSystem, SparseMatrix,
                          canonicalize, canonicalize_mixed, euler_check,
                          evaluate, gradient_md, homogenize_odd, jacobian,
                          mixed_evaluate, mixed_jacobian, monomials_to_matrix,
                          system_evaluators, system_parts, tensor_power)
from .problem_io import (parse_problem, parse_problem_file, problem_kind,
                         write_problem_file)
from .problems import (GpeParams, LvParams, gpe_default_guess, gpe_discretize,
                       lv_default_guess, lv_discretize, lv_scaled_root,
                       random_system)
from .quantum_newton import (NewtonState, NewtonTrace, StepFrame, TraceRow,
                             build_A_blockdiag, build_M_blockdiag, build_P,
                             init_heuristic, jacobian_be, jacobian_sandwich_be,
                             newton_solve, newton_step, norm_estimate,
                             recover_vector, rhs_be)
from .svt import (InversionConfig, backend_inverse_poly, degree_budget,
                  max_eigenvalue, min_eigenvalue, min_singular_value,
                  sv_invert)

__version__ = "0.1.0"
