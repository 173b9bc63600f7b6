"""A reference semantics for the tests, written from the definitions.

States are extended processes ``new binders.(frame | body)``; transitions
carry located events, and independent events commute.  ``syntax`` holds
the named walks, substitution, alpha-equivalence and congruence,
``knowledge`` the recipes and the static test, and ``lts`` located firing,
independence and the two commutation axioms.  Nothing is shared with the
library's tables; from ``latspi`` the package reads only the node classes,
the ``StaticWitness`` record and ``Theory``'s ``normalize`` and ``equal``
(``tests/test_imports.py``).
"""
