"""Exact analysis of probabilistic packet-forwarding programs.

Programs over finite packet universes compile to finite stochastic
matrices; iteration is solved in closed form through an absorbing Markov
chain, which makes equivalence, ordering, and quantitative queries
decidable and exact over the rationals.
"""

from .analysis import (
    Estimate, InputSpec, QuerySpec, Verdict, Witness, dist_leq, equiv,
    estimate, leq, query, sample_run,
)
from .bigstep import Kernel
from .errors import (
    BudgetExceededError, ConditioningError, DimensionError, ParseError,
    PnkError, SingularMatrixError, UniverseError, WellFormednessError,
)
from .parser import parse, parse_file_text
from .row import Row
from .star import PairStateGraph, explore, mark_saturated, star_dist, to_dot
from .syntax import (
    Assign, Choice, Drop, Neg, Program, Seq, Skip, Star, Test, Union,
    desugar, do_while, if_then_else, is_predicate, nary_choice, pretty,
    restrict, validate, var_in, while_do,
)
from .universe import EMPTY, FieldDecl, PacketSet, PacketUniverse

__all__ = [name for name in dir() if not name.startswith("_")]
