"""Verification and computation toolbox for the elasticity Hilbert complex
with mixed boundary conditions on box domains.

Two layers:

* an exact rational polynomial tensor-calculus engine, with the pointwise
  tensor algebra on fields, that machine-checks the operator identities
  behind the complex (``poly_calculus``, ``identity_suite``), and
* a finite-dimensional functional-analysis toolbox (adjoints, Helmholtz
  decompositions, cohomology, Poincare constants, regular decompositions)
  applied to assembled discrete elasticity complexes and incidence-matrix
  de Rham fixtures (``fa_toolbox``, ``derham``, ``elasticity_assembly``).
"""

__version__ = "0.1.0"
