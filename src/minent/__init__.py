"""Weakly supervised object localization from proposal bags.

Proposals are grouped into spatial cliques; training minimizes a pair of
entropy objectives — a global one that makes bag-level class evidence
concentrate on few cliques, and a local one that sharpens agreement among
the proposals inside the selected clique — so that localization emerges
from image-level labels alone.
"""

from .geometry import Box, iou_matrix, nms

__version__ = "0.1.0"

__all__ = ["Box", "iou_matrix", "nms", "__version__"]
