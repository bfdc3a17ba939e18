"""The law suites' names and the law checker's defaults.

They live apart from :mod:`fuzzint.laws` so that the CLI can build its
parser without loading the law checker; ``laws`` re-exports them.
"""

SUITES = ("axioms", "distributivity", "cut-identities", "endpoints", "structure",
          "crisp-axioms", "crisp-distributivity")
DEFAULT_BUDGET = 10_000_000  # instances per exhaustive loop before sampling
DEFAULT_SEED = 0
