"""Order-theoretic state spaces: real structures, ontic completions,
minimal tensors, contexts, and the derived geometry."""

from .core_order import (YES, NO, BOT, BOOL_VALUES, InputError, CapExceeded,
                         StateSpace, bool_space, bool_bullet)
from .realspaces import (RealSpace, RealStructureEmbedding, make_space,
                         bool_real_space, simplex_space, spin_space, classify)
from .ontic import OnticCompletion, build_completion, closure
from .tensor import (TensorSpace, build_tensor, nfold_tensor,
                     indeterministic_tensor)
from .contextuality import (find_joint_morphism, maximal_contexts,
                            verify_model_iso)
from .geometry import (GeometrySet, build_geometry, verify_projective,
                       verify_ortho, verify_invariants,
                       covering_preservation_report)
from .quantum import (BellScenario, bell_scenario, bell_marginals,
                      lambda_search, bell_report, broadcast_obstruction)
from .verify import run_suite

__version__ = "0.1.0"
