"""The cell table: every rule that differs between the five recurrent cells.

The generic code (moment maps, Jacobian moments, the width-N simulator)
looks a cell up in CELLS by architecture name and calls through its record;
nothing outside this module branches on a cell. Record functions call the
traced library functions (advance_cell, ...) through this module's globals,
never through stored references.

Moment steps map the gates of the current state (the mapping
preactivation_stats returns, which also evaluates the gate expectations) to
(mu', Q', rho', cell'), with rho' = E[s_a' s_b'] the cross moment of the two
coupled copies and cell' the advanced LSTM ensemble (None elsewhere).
Contribution entries are per-cell data: by label, the gates whose recurrent
variances weight the label's terms, and the terms, in the order the
Jacobian moments sum them. The stationary state powers obey
one recursion for every quadrature cell s' = A s + W,

    E[s^p] (1 - a(p, 0)) = sum_{j<p} C(p, j) a(j, p - j) E[s^j] b(p - j),

where E[A^j W^m] = a(j, m) b(m); each cell supplies its a and b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, Optional

import numpy as np

from .core import ARCHITECTURES, dsigmoid, dtanh, sigmoid
from .lstm_cell_sampler import CellStateEnsemble, _frame, _lstm_cell, advance_cell

__all__ = ["CellRules", "CELLS"]


# ---------------------------------------------------------------------------
# Jacobian contribution term algebra: a term is (number, shape), its
# coefficient the number times its label's weight. A shape is a tuple of
# blocks (s_pow, funcs), each s^s_pow * prod_k prims(u_k) inside its own
# expectation, funcs = ((gate, (prim, ...)), ...) sorted: the first block
# holds the term's own factors, the rest enter pre-averaged.


def _funcs(funcs) -> tuple:
    return tuple(sorted((g, tuple(sorted(ps))) for g, ps in funcs))


def _mk(number=1.0, s_pow=0, funcs=(), avg=()) -> tuple:
    return number, ((s_pow, _funcs(funcs)),) + tuple(avg)


def _shape_product(shape1, shape2) -> tuple:
    """The shape of the product of two terms of these shapes."""
    ((p1, funcs1), *avg1), ((p2, funcs2), *avg2) = shape1, shape2
    merged: dict[str, tuple] = {}
    for g, ps in funcs1 + funcs2:
        merged[g] = merged.get(g, ()) + ps
    return ((p1 + p2, _funcs(merged.items())), *avg1, *avg2)


# ---------------------------------------------------------------------------
# shared pieces of the moment steps


def _rho_s(state) -> float:
    # exact at c_s = 1 so that fully correlated copies stay bit-identical
    return state.q_s if state.c_s == 1.0 else state.c_s * state.sigma2_s + state.mu_s * state.mu_s


def _gate_powers(prim: str, ev, k: str) -> list:
    """[1, E[g(u_k)], ..., E[g(u_k)^4]] for the primitive g."""
    return [1.0] + [ev(k, (prim,) * m) for m in (1, 2, 3, 4)]


def _forget_diag(s, u, c):
    return sigmoid(u["f"]) * np.ones_like(np.asarray(s, dtype=float))


def _zeros(s, u, c):
    return np.zeros_like(np.asarray(s, dtype=float))


# ---------------------------------------------------------------------------
# vanillaRNN: s' = sig(u_f)


def _vanilla_step(theta, gates, state, cell):
    return gates.moments("f", "sig") + (None,)


_VANILLA_ENTRIES = {
    "a_0": ((), ()),
    "f": (("f",), (_mk(funcs=(("f", ("dsig", "dsig")),)),)),
}


def _vanilla_factors(ev):
    # A = 0, W = sig(u_f)
    return (lambda j, m: 0.0 if j else 1.0), _gate_powers("sig", ev, "f").__getitem__


# ---------------------------------------------------------------------------
# minimalRNN (x = "r") and GRU (x = "r2"): s' = sig(u_f) s + (1 - sig(u_f)) tanh(u_x)


def _convex_entries(x: str) -> dict:
    dsig = ("f", ("dsig", "dsig"))
    return {
        "a_0": ((), (_mk(funcs=(("f", ("sig", "sig")),)),)),
        "f": (
            ("f",),
            (
                _mk(s_pow=2, funcs=(dsig,)),
                _mk(-2.0, s_pow=1, funcs=(dsig, (x, ("tanh",)))),
                _mk(funcs=(dsig, (x, ("tanh", "tanh")))),
            ),
        ),
    }


def _minimal_entries() -> dict:
    out = _convex_entries("r")
    out["r"] = (("r",), (_mk(funcs=(("f", ("omsig", "omsig")), ("r", ("dtanh", "dtanh")))),))
    return out


def _gru_entries() -> dict:
    # the gated gate x = r2 reads g(u_k), k = r, from its GateId
    gated = ARCHITECTURES["GRU"].gated_gates()[0]
    x, k, g = gated.label, gated.gated_by, gated.g_name
    out = _convex_entries(x)
    outer = (("f", ("omsig", "omsig")), (x, ("dtanh", "dtanh")))
    # the inner-chain factors enter pre-averaged: unit-level fluctuations of
    # the inner matrix's column profile wash out of the trace at large width
    out[k] = ((k, x), (_mk(funcs=outer, avg=((2, ((k, (f"d{g}",) * 2),)),)),))
    out[x] = ((x,), (_mk(funcs=outer, avg=((0, ((k, (g, g)),)),)),))
    return out


def _convex(x: str, entries) -> "CellRules":
    def step(theta, gates, state, cell):
        e_gam, e_gam2, e_gampair = gates.moments("f", "sig")
        e_x, e_x2, e_xpair = gates.moments(x, "tanh")
        # gamma, x and s are independent
        mu_n = e_gam * state.mu_s + (1.0 - e_gam) * e_x
        q_n = e_gam2 * state.q_s + 2.0 * (e_gam - e_gam2) * state.mu_s * e_x + (1.0 - 2.0 * e_gam + e_gam2) * e_x2
        rho_n = (
            e_gampair * _rho_s(state)
            + 2.0 * (e_gam - e_gampair) * state.mu_s * e_x
            + (1.0 - 2.0 * e_gam + e_gampair) * e_xpair
        )
        return mu_n, q_n, rho_n, None

    def factors(ev):
        # A = gamma, W = (1 - gamma) x
        return (lambda j, m: ev("f", ("sig",) * j + ("omsig",) * m)), _gate_powers("tanh", ev, x).__getitem__

    def update(s, u, c):
        g = sigmoid(u["f"])
        return g * s + (1.0 - g) * np.tanh(u[x]), None

    return CellRules(
        step=step,
        entries=entries,
        factors=factors,
        update=update,
        d0=_forget_diag,
        dk={
            "f": lambda s, u, c: dsigmoid(u["f"]) * (s - np.tanh(u[x])),
            x: lambda s, u, c: (1.0 - sigmoid(u["f"])) * dtanh(u[x]),
        },
    )


# ---------------------------------------------------------------------------
# peepholeLSTM and LSTM share the cell update c' = sig(u_f) c + sig(u_i) tanh(u_r),
# lstm_cell_sampler._lstm_cell


def _peephole_step(theta, gates, state, cell):
    e_gam, e_gam2, e_gampair = gates.moments("f", "sig")
    e_i, e_i2, e_ipair = gates.moments("i", "sig")
    e_t, e_t2, e_tpair = gates.moments("r", "tanh")
    mu_c, q_c = state.mu_s, state.q_s
    mu_n = e_gam * mu_c + e_i * e_t
    q_n = e_gam2 * q_c + 2.0 * e_gam * mu_c * e_i * e_t + e_i2 * e_t2
    rho_n = e_gampair * _rho_s(state) + 2.0 * e_gam * mu_c * e_i * e_t + e_ipair * e_tpair
    return mu_n, q_n, rho_n, None


_PEEPHOLE_ENTRIES = {
    "a_0": ((), (_mk(funcs=(("f", ("sig", "sig")),)),)),
    "i": (("i",), (_mk(funcs=(("i", ("dsig", "dsig")), ("r", ("tanh", "tanh")))),)),
    "f": (("f",), (_mk(s_pow=2, funcs=(("f", ("dsig", "dsig")),)),)),
    "r": (("r",), (_mk(funcs=(("i", ("sig", "sig")), ("r", ("dtanh", "dtanh")))),)),
    # the output gate never feeds back into the cell: D_o = 0 identically,
    # so its entry is omitted
}


def _peephole_factors(ev):
    # A = sig(u_f), W = sig(u_i) tanh(u_r), the three gates independent
    eg = _gate_powers("sig", ev, "f")
    ew = [a * b for a, b in zip(_gate_powers("sig", ev, "i"), _gate_powers("tanh", ev, "r"))]
    return (lambda j, m: eg[j]), ew.__getitem__


def _lstm_gate_o(gates):
    """(E[sig(u_o)], E[sig(u_o)^2])."""
    return gates.expect("o", ("sig",)), gates.expect("o", ("sig", "sig"))


def _lstm_output_moments(gates, cell_new, gate_o):
    """(mu', Q', pair) of h = sig(u_o) tanh(c) on a sampled cell ensemble,
    given gate_o = _lstm_gate_o(gates); pair = (cov, var_a, var_b)
    holds the two chains' output covariance and each chain's own output
    variance, the one pair estimator of the sampled LSTM, and is None for an
    unpaired ensemble."""
    assert isinstance(cell_new, CellStateEnsemble)
    e_o, e_o2 = gate_o
    th = np.tanh(cell_new.samples)
    mu_n = e_o * float(np.mean(th))
    q_n = e_o2 * float(np.mean(th * th))
    if not cell_new.paired:
        return mu_n, q_n, None
    e_opair = gates.pair("o", "sig", "sig")
    th_b = np.tanh(cell_new.samples_b)
    mu_b = e_o * float(np.mean(th_b))
    var_a, var_b = q_n - mu_n * mu_n, e_o2 * float(np.mean(th_b * th_b)) - mu_b * mu_b
    return mu_n, q_n, (e_opair * float(np.mean(th * th_b)) - mu_n * mu_b, var_a, var_b)


def _lstm_step(theta, gates, state, cell):
    cell_new = advance_cell(theta, gates, cell)
    mu_n, q_n, pair = _lstm_output_moments(gates, cell_new, _lstm_gate_o(gates))
    rho_n = None
    if pair is not None:
        # chain b standardized to chain a's mean and variance, so that
        # (rho' - mu'^2) / (Q' - mu'^2) is the chains' correlation
        cov, var_a, var_b = pair
        rho_n = mu_n * mu_n + (cov * math.sqrt(var_a / var_b) if var_a > 0.0 and var_b > 0.0 else 0.0)
    return mu_n, q_n, rho_n, cell_new


def _lstm_correlate(theta, gates, n_s, n_iters, seed):
    pairs = _frame(theta, gates, n_s, n_iters, seed).pairs
    return _lstm_output_moments(gates, pairs, _lstm_gate_o(gates))[2]


def _lstm_update(h, u, c):
    c_new = _lstm_cell(u, c)
    return sigmoid(u["o"]) * np.tanh(c_new), c_new


# ---------------------------------------------------------------------------
# the table


@dataclass(frozen=True)
class CellRules:
    """One cell's rules.

    step(theta, gates, state, cell) -> (mu', Q', rho', cell'), gates the
    mapping preactivation_stats returns for state.
    correlate(theta, gates, n_s, n_iters, seed) -> (cov, var_a,
    var_b) is the sampled correlation step: the output covariance and the
    two output variances of the coupled frame equilibrated from zero
    (lstm_cell_sampler._frame, whose last update chi reads), which the
    correlation map divides as cov / sqrt(var_a var_b), so identical chains
    give exactly 1; None means rho' of step, normalized by the fixed
    (mu*, Q*). entries is per-cell data, the same for every theta: by
    label, (weights, terms), with weights the gates whose recurrent
    variances sigma_k^2 multiply into every term's coefficient, in that
    order, and terms (number, shape) pairs, the number 1 or -2.
    factors(ev) gives the state-power factors (a, b), with ev(k, prims) =
    E[prod of prims(u_k)]; both are None for the sampled LSTM. In an entry,
    a two-primitive gate factor holds one primitive per copy and s^2
    stands for E[s_a s_b]: at full correlation these are single-network
    expectations (m1), at a correlation C pair ones whose sum is chi
    (jacobian._correlation_slope).
    update(s, u, c) -> (s', c') is the width-N update, c the carried cell
    or None. d0(s, u, c) is the derivative through the carried state
    (ds'/ds, or dh'/dc_prev for the LSTM) and dk[k](s, u, c) the derivative
    by u_k, for every gate that reaches the state directly; the LSTM's
    Jacobian frame multiplies them chain by chain. has_cell marks a cell
    state, whether it is the tracked state (peephole) or carried beside it
    (LSTM).
    """

    step: Callable
    update: Callable
    d0: Callable
    dk: Mapping[str, Callable]
    entries: Optional[Mapping[str, tuple]] = None
    factors: Optional[Callable] = None
    correlate: Optional[Callable] = None
    has_cell: bool = False


CELLS: Mapping[str, CellRules] = MappingProxyType(
    {
        "vanillaRNN": CellRules(
            step=_vanilla_step,
            entries=_VANILLA_ENTRIES,
            factors=_vanilla_factors,
            update=lambda s, u, c: (sigmoid(u["f"]), None),
            d0=_zeros,
            dk={"f": lambda s, u, c: dsigmoid(u["f"])},
        ),
        "minimalRNN": _convex("r", _minimal_entries()),
        "GRU": _convex("r2", _gru_entries()),
        "peepholeLSTM": CellRules(
            step=_peephole_step,
            entries=_PEEPHOLE_ENTRIES,
            factors=_peephole_factors,
            update=lambda s, u, c: (_lstm_cell(u, s), None),
            d0=_forget_diag,
            dk={
                "i": lambda s, u, c: dsigmoid(u["i"]) * np.tanh(u["r"]),
                "f": lambda s, u, c: dsigmoid(u["f"]) * s,
                "r": lambda s, u, c: sigmoid(u["i"]) * dtanh(u["r"]),
                "o": _zeros,
            },
            has_cell=True,
        ),
        "LSTM": CellRules(
            step=_lstm_step,
            correlate=_lstm_correlate,
            update=_lstm_update,
            d0=lambda h, u, c: sigmoid(u["f"]) * sigmoid(u["o"]) * dtanh(_lstm_cell(u, c)),
            dk={
                "i": lambda h, u, c: sigmoid(u["o"]) * dtanh(_lstm_cell(u, c)) * dsigmoid(u["i"]) * np.tanh(u["r"]),
                "f": lambda h, u, c: sigmoid(u["o"]) * dtanh(_lstm_cell(u, c)) * dsigmoid(u["f"]) * c,
                "r": lambda h, u, c: sigmoid(u["o"]) * dtanh(_lstm_cell(u, c)) * sigmoid(u["i"]) * dtanh(u["r"]),
                "o": lambda h, u, c: dsigmoid(u["o"]) * np.tanh(_lstm_cell(u, c)),
            },
            has_cell=True,
        ),
    }
)
