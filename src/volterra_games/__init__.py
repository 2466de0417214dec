"""Nash equilibria of LQ stochastic games with Volterra-operator costs.

Solvers are built on a Nystrom discretization of the closed-form solution of
stochastic Fredholm equations of the second kind; an independent scenario-tree
brute-force oracle cross-checks the equilibria on small grids.
"""

from .errors import (
    ConfigError,
    ConvexityViolation,
    InadmissibleKernel,
    InvalidGrid,
    NonConcave,
    ShapeError,
    SingularOperator,
    SingularSystem,
    SizeExceeded,
    UnsupportedSignal,
    VolterraGamesError,
)
from .grid_ops import (
    ConstantLower,
    DelayIndicator,
    ExponentialDecay,
    GridKernel,
    KernelSpec,
    PowerLaw,
    Tabulated,
    TimeGrid,
    ZeroK,
    apply,
    build_grid,
    discretize_kernel,
    resolvent,
    star_product,
    zero_kernel,
)
from .signals import (
    COMMON,
    CompiledSignal,
    NoiseBundle,
    brownian_weighted,
    deterministic,
    draw_noise,
    martingale,
    ou,
)
from .fredholm import (
    FredholmSolver,
    build_Dt,
    stability_gap,
)
from .nplayer import (
    GameSpec,
    NashSolution,
    build_GH,
    concavity_check,
    foc_residual,
    objective,
    objective_per_path,
    solve_nash,
)
from .meanfield import (
    BalancedDeterministicFamily,
    IIDBrownianFamily,
    MFGSolution,
    MFGSpec,
    best_response_gap,
    convergence_study,
    draw_crossed_noise,
    eps_nash_gap,
    solve_generic,
    solve_infinite,
)
from .model_builders import (
    DelayMeasure,
    VolterraGameSpec,
    build_advertising_game,
    build_liquidation_game,
    build_systemic_game,
    reduce_volterra_game,
)
from .oracle import ScenarioTree, build_tree, compare, discrete_nash_kkt

__version__ = "0.1.0"
