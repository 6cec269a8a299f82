"""Exact computations with Coxeter groups and Iwahori-Hecke algebras,
cross-verified against brute-force point counts on finite-field flag
varieties.

The main surfaces:

* :mod:`heckeflag.poly` -- exact integer polynomials in q;
* :mod:`heckeflag.coxeter` -- Coxeter systems with canonical words, length,
  Bruhat order, enumeration, conjugacy classes;
* :mod:`heckeflag.hecke` -- the T-basis Hecke algebra, structure constants,
  regular traces;
* :mod:`heckeflag.eset` -- diagonal-support sets, their maximal degree, and
  the degree maximizers, with truncated scans for infinite groups;
* :mod:`heckeflag.flag` -- complete flags over a prime field, relative
  position, and exhaustive cell/piece counts;
* :mod:`heckeflag.verify` -- the verification suites, as check records;
* :mod:`heckeflag.cli` -- the ``heckeflag`` command.
"""

from .coxeter import ConjugacyClass, CoxeterSystem, Element, build_system
from .eset import ESetReport, e_set
from .flag import Flag, FlagSpace, build_space
from .hecke import HeckeAlgebra, HeckeElt
from .poly import MINUS_INFINITY, ONE, Q, Q_MINUS_ONE, ZERO, IntPoly

__version__ = "0.1.0"

__all__ = [
    "build_system",
    "CoxeterSystem",
    "Element",
    "ConjugacyClass",
    "HeckeAlgebra",
    "HeckeElt",
    "IntPoly",
    "MINUS_INFINITY",
    "ZERO",
    "ONE",
    "Q",
    "Q_MINUS_ONE",
    "e_set",
    "ESetReport",
    "build_space",
    "FlagSpace",
    "Flag",
    "__version__",
]
