"""Post-detection toolkit for joint head/person detection.

Geometry, NMS, a trainable head-body relation model, the recall/removal
post-process, log-average miss rate evaluation and a synthetic crowd
simulator, tied together by the `crowdpost` command line tool.  Import the
submodules; the package binds only `__version__`.
"""

__version__ = "0.1.0"
