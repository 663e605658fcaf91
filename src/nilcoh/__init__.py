"""nilcoh: cohomology rings of nilpotent Lie algebras, exact group arithmetic
in exponential coordinates, and Monte Carlo averaging of pulled-back
invariant forms along maps between nilpotent groups."""

from .algebra import (
    AlgebraError,
    JacobiViolation,
    LieAlgebra,
    NotNilpotent,
    abelian,
    algebra_from_dict,
    filiform,
    free_nilpotent_two_step,
    heisenberg3,
    heisenberg5,
    load_algebra,
    save_algebra,
    validate_algebra,
)
from .cohomology import (
    CohomologyRing,
    CohomologySpace,
    DegreeOverflow,
    cohomology,
    compare_rings,
    cup_class,
    cup_pairing_rank,
    ring_invariants,
)
from .degree import (
    AsymptoticDegreeTrace,
    BoundaryTooClose,
    DegreeResult,
    SingularTarget,
    area_formula_check,
    asymptotic_degree,
    local_degree,
    qi_distortion_probe,
)
from .dsl import ArityError, DomainError, ParseError, UnknownSymbolError, parse, pretty
from .ergodic import (
    ConvergenceReport,
    ErgodicityProbe,
    Observable,
    OrbitTrace,
    amenable_norm,
    convergence_report,
    derivative_entry,
    empirical_measure,
    ergodicity_probe,
    parse_observable,
)
from .forms import (
    KForm,
    basis_covector,
    basis_form,
    ce_differential,
    parse_form,
    unit_form,
    volume_form,
    wedge,
)
from .group import BallSpec, box_volume, sample_ball_coords
from .maps import (
    IllConditionedFrame,
    SmoothMap,
    differential,
    evaluate,
    evaluate_batch,
    differential_batch,
    is_group_homomorphism,
    load_map,
    map_from_texts,
    normalize_to_y0,
    save_map,
)
from .pullback import (
    AverageEstimate,
    HomomorphismReport,
    amenable_average,
    exact_homomorphism_pullback,
    homomorphism_check,
    induced_cohomology_map,
    pullback_eval,
)

__version__ = "0.1.0"
