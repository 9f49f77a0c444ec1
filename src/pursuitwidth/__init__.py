"""Game-based digraph width measures via exhaustive cops-and-robbers solving."""

from .arena import (COPS, INITIAL, ROBBERS, CopTurn, Initial, RobberTurn,
                    SearchConfig, SolveResult, solve_invisible, solve_search,
                    validate_invisible_schedule, width)
from .digraph import (Digraph, emit_dot, emit_edge_list, is_strongly_connected,
                      parse_edge_list, reach_excluding, symmetric_closure)
from .strategy import (History, PositionalCopStrategy, cleanup_strategy,
                       isolating_transform, prudent_transform, validate_cop_strategy,
                       validate_robber_strategy)

__version__ = "0.1.0"
