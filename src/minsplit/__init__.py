"""Operator splitting with minimal memory footprint.

A numpy library for finding zeros of sums of maximally monotone operators
through their resolvents: the minimal-memory n-operator splitting and its
relatives, a decentralised cycle-graph protocol that reproduces it exactly,
multi-block ADMM in averaged and augmented Lagrangian forms with ASALM and
primal-dual baselines, and a coefficient-matrix calculus for certifying
one-shot splitting schemes numerically.
"""

from .admm import (
    AdmmReport,
    AsalmState,
    KktResidual,
    SepBlock,
    SepProblem,
    admm_auglag_step,
    admm_avg_step,
    admm_solve,
    asalm_init,
    asalm_solve,
    asalm_step,
    averaged_to_auglag,
    dual_ops,
    identity_prox_block,
    kkt_residual,
    pdhg_solve,
    pdhg_step,
    pdhg_stepsizes,
    point_block,
    prox_compose,
    prox_compose_check,
    quadratic_block,
    rpca_problem,
)
from .linalg import SvdResult, op_norm, solve_small, svd
from .network import (
    Message,
    Node,
    RoundLog,
    X_PASS,
    Z_PASS,
    gathered_z,
    make_nodes,
    round_log_csv,
    run_protocol,
    run_round,
)
from .operators import (
    AbsValue,
    AffineOp,
    AffineSetIndicator,
    ConstantOp,
    MonotoneOp,
    PartialMatrix,
    PointIndicator,
    ProxOp,
    ScaledOp,
    ZeroOp,
    firmness_gap,
    prox_abs,
    prox_l1,
    prox_nuclear,
    project_partial_ball,
    soft_threshold,
)
from .problems import (
    AffineMonotoneInstance,
    ConsensusInstance,
    Prng,
    RpcaInstance,
    cycle_laplacian,
    gen_affine_monotone,
    gen_consensus,
    gen_rpca,
    load_instance,
    save_instance,
)
from .scheme import (
    KernelWitness,
    SchemeMatrices,
    SolutionMappingReport,
    check_solution_mapping,
    eval_scheme,
    kernel_residuals,
    lifting_ok,
    load_scheme,
    mt_scheme,
    ryu3_scheme,
    ryu4_scheme,
    save_scheme,
    solve_scheme,
    witness_from_point,
)
from .splitting import (
    SolveReport,
    SplitState,
    averagedness_check,
    consensus_spread,
    dr_step,
    mt_solve,
    mt_step,
    pr_solve,
    product_dr_solve,
    ryu3_solve,
    ryu3_step,
)
from .trace import ResidualTrace

__version__ = "0.1.0"
