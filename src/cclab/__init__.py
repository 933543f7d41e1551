"""Few-qubit noisy-channel laboratory for classical, quantum and total
correlation measures."""

from .states import (DensityMatrix, PureState, partial_trace,
                     partial_transpose, pauli_expectation, pure_to_density,
                     von_neumann_entropy)
from .channels import KrausChannel, apply_local, apply_uniform, make_channel
from .correlators import (correlator, distributed_cmax, distributed_correlator,
                          genuine_max, parse_index)
from .measures import (classical_discord, distributed_measure,
                       entanglement_of_formation, koashi_winter_check,
                       local_work, log_negativity, mutual_information,
                       quantum_discord)
from .sampling import (BoundFit, DistributionSummary, SamplerConfig,
                       decay_rate, ensemble_sweep, fit_bounds, sample_state)
from .discrimination import ProbeTrace, classify, generate_probe_trace

__version__ = "0.1.0"
