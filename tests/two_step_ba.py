"""BA as two steps, kept as the oracle for ``decide_ba``'s integral-witness
shortcut: the support loop (``relative_interior_support``, through
``dead_columns``) after the LP pass, then ``integer_feasible`` with the
dead set zeroed, whatever the phase-1 witness is.
"""

from keyed_systems import dead_columns

from crystalforge import relaxation_engine as rx


def two_step_ba(x_graph, a_graph, k):
    rows = rx.build_ip_system(x_graph, a_graph, k).equations
    lp = rx._lp_pass(rows)
    if lp is None:
        return False
    return rx.integer_feasible(rows, dead_columns(lp)) is not None
