"""Twisted quandle homology, cocycle constructions and cocycle state-sum
invariants, with exact arithmetic.

Importing the package loads none of its modules: the command-line front
end imports the modules a command runs when that command runs.
"""

# the complexes of a quandle: all tuples (TR), the degenerate ones (TD)
# and their quotient (TQ); the CLI parser reads this without `chain`
VARIANTS = ("TR", "TD", "TQ")
