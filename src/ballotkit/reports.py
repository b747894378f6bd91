"""What the command's JSON reports share, stated once for every command.

It imports nothing, so a command that writes JSON, or builds the parser
with the ``verify --suite`` choices, needs no other module for them.
"""

#: The ``"schema"`` marker of every JSON output.
SCHEMA_VERSION = 1
#: The ``verify`` suites in the order ``--suite all`` runs them.
SUITES = ("tables", "formulas", "bijections")
