"""ionsynth: fermionic excitations and Hamiltonians on trapped-ion hardware.

The pipeline runs Pauli algebra (pauli) -> gate model and circuit files
(circuit) -> second-quantized operators under the Jordan-Wigner mapping
(fermion, integrals) -> MS-native block synthesis (synth) -> ansatz and
Trotter assembly (evolution), with every compiled block checkable against a
dense oracle (verify).  The command-line entry point lives in cli.
"""

from . import circuit, evolution, fermion, integrals, pauli, synth, verify
from .circuit import *  # noqa: F403
from .evolution import *  # noqa: F403
from .fermion import *  # noqa: F403
from .integrals import *  # noqa: F403
from .pauli import *  # noqa: F403
from .synth import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

# Each module's __all__ names its public API; the package exports their union.
__all__ = [
    "__version__",
    *pauli.__all__,
    *circuit.__all__,
    *fermion.__all__,
    *integrals.__all__,
    *synth.__all__,
    *verify.__all__,
    *evolution.__all__,
]
