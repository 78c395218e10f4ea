"""Discretized maximal operators, radial Fourier multipliers, square
functions, rotation-descent averaging, and Grushin/Koranyi geometry on
uniform grids, with an experiment driver measuring how mixed-norm operator
bounds behave as the dimension grows."""

from .grid import (
    GridFunction,
    GridSpec,
    VectorField,
    forward_transform,
    inverse_transform,
    make_grid,
    sample,
)
from .grushin import (
    GrushinPoint,
    cc_domination_note,
    grushin_maximal,
    iterated_maximal,
    koranyi_ball_volume,
    koranyi_distance,
)
from .maximal import RadiiSet, default_radii, hl_maximal, maximal_1d, weighted_maximal
from .multiplier import (
    RadialProfile,
    apply_multiplier,
    bump,
    decay_constants,
    dyadic_piece,
    funk_hecke_kernel,
    kernel,
    maximal_multiplier,
    radial_majorant,
    spherical_maximal,
    surface_multiplier,
    tilde_piece,
)
from .norms import Exponent, level_measure, lp_norm, lq_pointwise, mixed_norm
from .rotations import (
    DescentSplit,
    RotationMatrix,
    descent_maximal,
    dimension_split,
    haar_rotation,
    lemma2_domination,
    rotation_average_check,
    sphere_identity_check,
)
from .scan import ScanConfig, ScanReport, emit_csv, emit_plotdata, run_scan
from .squarefn import TGrid, default_tgrid, prop2_check, sharp_annulus, square_function

__version__ = "0.1.0"
