"""Decompositions of plane tree drawings and triangulated polygons into
greedily routable regions, with exact rational geometry throughout.

The package root exports only __version__; import from the modules."""

__version__ = "0.1.0"
