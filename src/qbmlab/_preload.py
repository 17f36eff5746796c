"""The forkserver's preload: importing it builds the pieces of the physics in its environment.

runner._context names this module, alone, in set_forkserver_preload, and
nothing else imports it, so only the forkserver builds pieces at import
(runner._preload_pieces).
"""

from .runner import _preload_pieces

_preload_pieces()
