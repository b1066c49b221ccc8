"""``VectorCore``: an alias of :class:`~repro.pipeline.core.OutOfOrderCore`.

It must be the same class, not a subclass: ``perfbench/`` imports
``VectorCore`` and wraps ``vars(VectorCore)["run"]``, which a subclass
without its own ``run`` lacks.
"""

from repro.pipeline.core import OutOfOrderCore

VectorCore = OutOfOrderCore
