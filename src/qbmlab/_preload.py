"""The forkserver's preload: importing it builds the pieces of the physics in its environment.

runner._context names this module, alone, in set_forkserver_preload, and
nothing else imports it, so only the forkserver builds pieces at import
(runner._preload_pieces).  It also imports the pool's worker loop
(concurrent.futures.process), which the runner imports only where a pool
starts, so that every worker the forkserver forks inherits it rather than
importing it after the fork.
"""

import concurrent.futures.process  # noqa: F401

from .runner import _preload_pieces

_preload_pieces()
