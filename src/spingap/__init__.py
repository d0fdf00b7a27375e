"""spingap: spectral-gap laboratory for Metropolis samplers on mean-field spin models.

Three model families (a one-coordinate warm-up chain, the mean-field
Ising model, and the mean-field Blume-Emery-Griffiths model), their
naive and orbit-jump Metropolis chains, exact class-space reductions,
spectral/conductance analysis, trajectory samplers, and verifiers that
confront the mixing theorems with exact computation.
"""

from .models import (
    ClassTable,
    EnergyClass,
    ModelSpec,
    OddSizeError,
    beg,
    beg_row_log_profile,
    class_table,
    enumerate_states,
    ising,
    warmup,
)
from .kernels import (
    BirthDeathChain,
    FiniteKernel,
    MoveTable,
    Partition,
    beg_lumped,
    equi_energy_proposal,
    export_kernel_text,
    lumped_projection,
    metropolis_chain,
    metropolize,
    restrictions,
    signed_lumped_chain,
    signed_move_table,
    single_flip_proposal,
    small_world_proposal,
    unsigned_lumped_chain,
    warmup_block_partition,
)
from .spectral import (
    AsymptoticVariance,
    BoundEvaluation,
    SectorSpectrum,
    Spectrum,
    avar_spectral,
    bd_path_bound,
    cheeger_interval,
    conductance_exact,
    cut_bottleneck_log,
    decomposition_bound,
    gap,
    gershgorin_bound,
    interval_conductance,
    sector_spectrum,
    spectrum,
)
from .sampling import (
    RunConfig,
    RunStats,
    Sampler,
    batch_means_avar,
    bose_einstein_sample,
    cost_profile,
    run_estimate,
)
from .verify import (
    BoundReport,
    FitResult,
    beg_unimodality_scan,
    ising_fast_bound,
    ising_profile_scan,
    is_unimodal,
    ols_fit,
    rate_function,
    rate_function_argmin,
    scaled_params,
    scaled_params_consistent,
    verify_beg_fast,
    verify_beg_slow,
    verify_ising_fast,
    verify_ising_slow,
    verify_warmup,
)

__version__ = "0.1.0"
