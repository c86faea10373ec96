"""sgosc: tempered oscillatory integrals, global wave front sets, and
SG Fourier integral operators, numerically."""

from .compactify import (
    AsymptoticCutoff,
    BoundaryNeighborhood,
    CompactPoint,
    ball_distance,
    contains,
    japanese_bracket,
    pair_distance,
    project,
    sphere_grid,
)
from .jets import Jet, jet_space, jet_variables
from .symbols import (
    DEFAULT_PROTOCOL,
    ScanProtocol,
    SymbolFn,
    elliptic_at,
    globally_elliptic,
    parse_symbol_expr,
    seminorm_estimate,
    verify_order,
)
from .phase import (
    PhaseFn,
    build_mphi_grid,
    build_spphi_grid,
    check_admissible,
    eta,
    mphi_classify,
    sp_angle_test,
    spphi_classify,
)
from .regularize import (
    ConeLocalizer,
    RegularizerP,
    RegularizerRefused,
    apply_P_r,
    build_P,
    build_Q,
    build_Qp,
    residual_P,
)
from .oscint import (
    OscIntegral,
    SchwartzFn,
    choose_r,
    direct_quadrature,
    eval_pairing,
    eval_pointwise,
    make_osc_integral,
)
from .wavefront import (
    EvaluableDistribution,
    WfProtocol,
    WfSet,
    csp_scan,
    css_scan,
    fio_extension_guard,
    fourier_symmetry_check,
    pairing_predicate,
    wf_scan,
)
from .synth import PrescribedWfSpec, make_fk, make_g, make_prescribed
from .catalog import (
    KgSpec,
    get_amplitude,
    get_distribution,
    get_phase,
    get_testfn,
    kg_ft_support_check,
    kg_mphi_oracle,
    kg_spphi_oracle,
    list_catalog,
)
from .fio import (
    HalfOperator,
    OscKernelOperator,
    build_V,
    compose,
    fourier_half_operator,
    kg_evolve,
)

__version__ = "0.1.0"
