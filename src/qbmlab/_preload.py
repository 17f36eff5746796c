"""The forkserver's preload: the modules that every worker it forks inherits.

runner._context names this module, alone, in set_forkserver_preload.  It
imports the runner, and with it numpy and the rest of the package, and the
pool's worker loop (concurrent.futures.process), which the runner imports
only where a pool starts, so that every worker the forkserver forks
inherits them rather than importing them after the fork.  It holds no
data: each worker builds its run's simulation pieces itself
(runner.simulation_pieces), so importing it builds nothing.
"""

import concurrent.futures.process  # noqa: F401

from . import runner  # noqa: F401
