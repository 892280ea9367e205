"""Combinatorics of two-colored partition categories: word calculus,
partition categories, projective modules, fusion rings, exact linear
realizations and their laws, and rooted quantum trees."""

__all__ = [
    "words",
    "partitions",
    "categories",
    "projmod",
    "fusion",
    "laws",
    "linreal",
    "qgraph",
    "errors",
    "suites",
    "cli",
]
