"""Exact geometric reductions from orthogonal-vectors instances.

Boolean-vector instances are embedded into points and planar curves so that
a distance threshold answers the original orthogonal-pair question; solvers,
nearest-neighbor structures, a mechanical verification harness, and a
scaling benchmark sit on top.  All correctness-relevant arithmetic is exact
rational — no floats anywhere near a comparison.

The package exports exactly the ``__all__`` of each submodule below;
``ovgeom.formats`` and ``ovgeom.cli`` are imported by module path.
"""

from . import bench, core, embed, frechet, gadgets, generate, ov, proximity, verify

# Taken before the star imports: ``from .generate import *`` rebinds the
# name ``generate`` from the module to the function.
_MODULES = (core, ov, frechet, embed, gadgets, proximity, generate, verify, bench)

from .core import *  # noqa: E402,F403
from .ov import *  # noqa: E402,F403
from .frechet import *  # noqa: E402,F403
from .embed import *  # noqa: E402,F403
from .gadgets import *  # noqa: E402,F403
from .proximity import *  # noqa: E402,F403
from .generate import *  # noqa: E402,F403
from .verify import *  # noqa: E402,F403
from .bench import *  # noqa: E402,F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [name for mod in _MODULES for name in mod.__all__]

del _MODULES
