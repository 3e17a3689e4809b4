"""Default tolerance and step sizes.

They live in a module that imports nothing, so the command line can build
its parser without loading numpy; `frames`, `planar` and `grassmann`
re-export them under the same names.
"""

#: absolute/relative tolerance of every numerical check
DEFAULT_TOL = 1e-9
#: largest max-norm step between consecutive samples of a planar path
DEFAULT_MAX_STEP = 0.05
#: largest step between consecutive Gram points of a holonomy loop
DEFAULT_LOOP_STEP = 0.2
