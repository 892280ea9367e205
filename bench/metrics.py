"""Names and units of the benchmark's metrics, and where each comes from."""

CLI_LABELS = (
    "classify-words-ooxx",
    "classify-words-e-json",
    "table",
    "verify-laws",
    "verify-fusion-rank",
    "verify-psi",
    "verify-reduce",
    "verify-trees",
)
LAYERS = ("partitions", "categories", "projmod", "words", "fusion", "linreal", "qgraph", "cli")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics and how each is read from a traced pass:
# ("calls"|"busy"|"self", span) for span statistics, ("layer_busy"|
# "layer_self", layer), ("counts", name) for exact counts; None for the
# ones run.py derives.  Which end-to-end metric each group should move:
#   linreal.gram_*          wall_s on gram only
#   linreal.check_laws/realize  wall_s on cli
#   categories.*            wall_s and peak_rss_mb on modules; wall_s on cli
#                           and on the CU frames of gram
#   partitions.*, projmod.* wall_s on modules
#   words.*                 wall_s on words
#   fusion, qgraph, cli.*   wall_s on cli; cli.startup.s moves setup_s
#   process.cpu_s           diagnostic next to wall_s
PER_LAYER = {
    "linreal.gram_exponents.calls": ("count", ("calls", "linreal.gram_exponents")),
    "linreal.gram_exponents.s": ("s", ("busy", "linreal.gram_exponents")),
    "linreal.gram_pairs": ("count", ("counts", "linreal.gram_pairs")),
    "linreal.gram_rank.self_s": ("s", ("self", "linreal.gram_rank")),
    "linreal.check_laws.s": ("s", ("busy", "linreal.check_laws")),
    "linreal.realize.calls": ("count", ("calls", "linreal.realize")),
    "categories.enumerate_members.calls": ("count", ("calls", "categories.enumerate_members")),
    "categories.enumerate_members.s": ("s", ("busy", "categories.enumerate_members")),
    "categories.enumerate_members.diagrams": ("count", ("counts", "categories.enumerate_members.diagrams")),
    "categories.enum_yield": ("ratio", None),
    "partitions.constructed": ("count", ("counts", "partitions.constructed")),
    "partitions.compose.calls": ("count", ("calls", "partitions.Partition.compose")),
    "partitions.compose.s": ("s", ("busy", "partitions.Partition.compose")),
    "partitions.tensor.calls": ("count", ("calls", "partitions.Partition.tensor")),
    "projmod.universe.s": ("s", ("busy", "projmod.PartitionUniverse.__init__")),
    "projmod.equivalence_classes.s": ("s", ("busy", "projmod.PartitionUniverse.equivalence_classes")),
    "projmod.dominated_by.s": ("s", ("busy", "projmod.PartitionUniverse.dominated_by")),
    "projmod.closure.calls": ("count", ("calls", "projmod.closure")),
    "projmod.closure.s": ("s", ("busy", "projmod.closure")),
    "projmod.distinct_generated_modules.s": ("s", ("busy", "projmod.distinct_generated_modules")),
    "words.classify.s": ("s", ("busy", "words.classify")),
    "words.classify.headroom_max": ("count", ("counts", "words.classify.headroom_max")),
    "words.generate.calls": ("count", ("calls", "words.generate")),
    "words.generate.s": ("s", ("busy", "words.generate")),
    "words.generate.members": ("count", ("counts", "words.generate.members")),
    "words.truncation.calls": ("count", ("calls", "words.truncation")),
    "words.truncation.s": ("s", ("busy", "words.truncation")),
    "fusion.s": ("s", ("layer_busy", "fusion")),
    "qgraph.s": ("s", ("layer_busy", "qgraph")),
    **{f"cli.{label}.s": ("s", ("busy", f"cli.{label}")) for label in CLI_LABELS},
    "cli.startup.s": ("s", None),
    **{f"{layer}.self_s": ("s", ("layer_self", layer)) for layer in LAYERS},
    "process.cpu_s": ("s", None),
    "trace.traced_wall_s": ("s", None),
    "trace.overhead_s": ("s", None),
}
