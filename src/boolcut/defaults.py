"""The defaults that ``boolcut --help`` shows, in a module that imports nothing.

``search`` and ``constructions`` take these values from here, and the
command line reads them here without loading either, so that its help
and its argument errors start without the library.
"""

# The largest lattice, in nodes, that the exact search enumerates.
DEFAULT_NODE_CAP = 64

# The defaults of ``search.SearchBudget``: nodes expanded and wall-clock seconds.
MAX_NODES_EXPANDED = 2_000_000
WALL_CLOCK_LIMIT = 120.0

# The names of ``constructions.BUILDERS``, in its order: the first three
# build the cutsets of l - m = 0, 1 and 2.
METHODS = ("level", "bicolor", "fourcolor", "product")
