"""Combinatorics of two-colored partition categories: word calculus,
partition categories, projective modules, fusion rings, sparse linear
realizations, and rooted quantum trees."""

__all__ = [
    "words",
    "partitions",
    "categories",
    "projmod",
    "fusion",
    "linreal",
    "qgraph",
    "errors",
    "suites",
    "cli",
]
