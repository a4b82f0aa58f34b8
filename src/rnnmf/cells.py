"""The cell table: every rule that differs between the five recurrent cells.

The generic code (moment maps, Jacobian moments, the width-N simulator)
looks a cell up in CELLS by architecture name and calls through its record.
The four quadrature cells' rules sit wholly in this table: no code outside
it tells them apart. The sampled LSTM is still branched on outside it, by
arch.needs_cell in moment_maps._step and step_correlation (which call its
sampled steps, _lstm_step and _lstm_correlate, directly),
fixed_point.solve_moments and chi_at, jacobian.contribution_vector,
moment_maps.moment_trajectory and the simulator (which carries a cell), by
CELLS["LSTM"] in jacobian.lstm_chi_frame, and by has_cell and needs_cell in
the CLI's cell-dist (ROADMAP item 3).
Record functions call the traced library functions (advance_cell, ...)
through this module's globals, never through stored references.

A quadrature cell's moment step is one second-moment rule applied twice:
read over single-copy expectations and Q it gives Q', read over the pair
expectations at the gate correlations and E[s_a s_b] it gives rho' =
E[s_a' s_b'], the cross moment of the two coupled copies. The sampled
LSTM's steps (_lstm_step, _lstm_correlate) read its cell ensembles
instead.

Each of the four quadrature cells is declared by its affine law
s' = A s + W, A and W products of gate primitives, and _affine_cell derives
the rest of its record from the law: the width-N update A s + W and the
derivative profiles d0 = ds'/ds = A and dk[k] = ds'/du_k, by the product
rule over core._DERIVATIVES, each compiled to straight-line code; the
Jacobian contribution entries, each profile squared; and the factors a, b
of the stationary state-power recursion

    E[s^p] (1 - a(p, 0)) = sum_{j<p} C(p, j) a(j, p - j) E[s^j] b(p - j),

where E[A^j W^m] = a(j, m) b(m). Only the moment steps restate the law. A
step derived from it reads E[sig omsig] and E[omsig^2] over pair grids,
where the written steps take 1 - sig by algebra: solving moments and
correlation and taking the Jacobian moments at 22 points (minimalRNN and
GRU, forget bias 0 to 5) took 187 more pair grids (498 against 311), 418
more node sums (1,380 against 962) and 41% more time (2-core Xeon VM).
The tests check each written step against the law's recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from types import MappingProxyType
from typing import Callable, Mapping, Optional

import numpy as np

from .core import _DERIVATIVES, _PRIMS, ARCHITECTURES, dsigmoid, dtanh, sigmoid
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


def _shape_product(shape1, shape2) -> tuple:
    """The shape of the product of two terms of these shapes."""
    ((p1, funcs1), *avg1), ((p2, funcs2), *avg2) = shape1, shape2
    merged: dict[str, tuple] = {}
    for g, ps in funcs1 + funcs2:
        merged[g] = merged.get(g, ()) + ps
    return ((p1 + p2, _funcs(merged.items())), *avg1, *avg2)


# ---------------------------------------------------------------------------
# A quadrature cell's affine law s' = A s + W: A and W are products of gate
# primitives ((gate, prim), ...), each gate at most once in each, and A = ()
# stands for A = 0. A profile (common, terms) is the product of the common
# factors with the sum of the terms (sign, s_pow, factors), each the sign
# times its factors times s^s_pow; the law itself is one.


class _Source:
    """A straight-line function under construction: local(expr) returns
    the local variable v{n} that holds expr, assigning it in the body on
    its first read, and lines holds the body, to which a caller may add
    its own statements."""

    def __init__(self):
        self.names, self.lines = {}, []  # names: expression -> local, in first-read order

    def local(self, expr: str) -> str:
        if expr not in self.names:
            self.names[expr] = f"v{len(self.names)}"
            self.lines.append(f"    {self.names[expr]} = {expr}")
        return self.names[expr]

    def compile(self, name: str, params: str, returns: str, namespace: dict) -> Callable:
        """The function name(params) of the body and the returns line,
        executed in namespace, with its source as its __doc__."""
        source = "\n".join([f"def {name}({params}):", *self.lines, returns])
        exec(source, namespace)
        namespace[name].__doc__ = source
        return namespace[name]


def _evaluate(common, terms, returns: str = "{}") -> Callable:
    """The profile (common, terms) as a function of (s, u, c), returning
    `returns` formatted with the profile's expression; every sign is +1 or
    -1. It is compiled to straight-line code (its source is its __doc__),
    each primitive evaluated once and sums and products folded left to
    right: interpreting the terms per call cost 3-4 us more than the
    hand-written rules (2-core Xeon VM), as much as the arithmetic on 512
    units. It keeps their bits: omsig is 1.0 minus its gate's sigmoid, as
    in _PRIMS["omsig"]; a sign multiplies nothing (a + (-1 * x) == a - x);
    and a sum that is the lone unit term multiplies nothing either."""
    if not terms:
        return lambda s, u, c: np.zeros_like(np.asarray(s, dtype=float))
    src = _Source()

    def value(g, p):
        return src.local(f"1.0 - {value(g, 'sig')}" if p == "omsig" else f"{p}(u[{g!r}])")

    total = " ".join(
        ("+ " if sign > 0 else "- ") + (" * ".join([value(*f) for f in fs] + ["s"] * s_pow) or "1.0")
        for sign, s_pow, fs in terms
    ).lstrip("+ ")
    expr = " * ".join([value(*f) for f in common] + [f"({total})"] * (total != "1.0"))
    return src.compile("profile", "s, u, c", "    return " + returns.format(expr), dict(_PRIMS))


def _by_gate(law, k: str) -> tuple:
    """The profile of ds'/du_k by the product rule, with the gate's
    derivative factored out of the terms it enters: for
    sig(u_f) s + omsig(u_f) tanh(u_r) it is dsig(u_f) (s + (-1) tanh(u_r))."""
    terms, derivatives = [], set()
    for sign, s_pow, fs in law:
        for g, p in fs:
            if g == k:
                d_sign, d = _DERIVATIVES[p]
                derivatives.add(d)
                terms.append((sign * d_sign, s_pow, tuple(f for f in fs if f[0] != k)))
    if not terms:
        return (), ()
    (d,) = derivatives  # a gate that A and W share has one derivative in both
    return ((k, d),), tuple(terms)


def _square(profile, avg=()) -> tuple:
    """The terms (number, shape) of a profile's square, one factor per copy
    and each cross term counted twice, with the blocks avg appended to
    every shape."""
    common, terms = profile
    copies = [(sign, ((s_pow, _funcs((g, (p,)) for g, p in common + fs)),)) for sign, s_pow, fs in terms]
    return tuple(
        ((1.0 if i == j else 2.0) * n1 * n2, _shape_product(s1, s2) + avg)
        for (i, (n1, s1)), (j, (n2, s2)) in combinations_with_replacement(enumerate(copies), 2)
    )


def _state_power_factors(A: tuple, W: tuple) -> Callable:
    """factors(j, m) -> (a, b) of the law s' = A s + W: the gate
    expectations whose products are a(j, m) and b(m), each a tuple of reads
    (gate, prims). a runs over A's gates, taking W's factor on a gate they
    share, and b over W's other gates; a read of no primitive is 1.0 and is
    left out, and a is None, a zero, where A = 0 and j > 0."""
    shared = {g: (p,) for g, p in W if g in dict(A)}
    rest = [(g, p) for g, p in W if g not in shared]

    def factors(j, m):
        a = None if j and not A else tuple((g, ps) for g, p in A if (ps := (p,) * j + shared.get(g, ()) * m))
        return a, tuple((g, (p,) * m) for g, p in rest if m)

    return factors


def _affine_cell(name: str, mean, second, A: tuple, W: tuple, has_cell: bool = False) -> "CellRules":
    """The record of a quadrature cell with moment rules mean and second
    and law s' = A s + W. The rules read A's primitives, then W's on the
    gates A lacks. Every gate of the law gets its squared profile as its
    contribution entry, weighted by its own variance. A gated gate x's
    entry also carries its inner gate's g(u_k)^2, and the inner gate k,
    which acts through x, gets x's squared profile times g'(u_k)^2 s^2,
    weighted by both variances: those chain factors enter pre-averaged,
    since unit-level fluctuations of the inner matrix's column profile wash
    out of the trace at large width. A gate in neither A nor W (the
    peephole's output gate) has no entry and a zero profile."""
    arch = ARCHITECTURES[name]
    law = ((1.0, 1, A),) * bool(A) + ((1.0, 0, W),)
    d0 = (), tuple((sign, 0, fs) for sign, s_pow, fs in law if s_pow)
    profiles = {k: _by_gate(law, k) for k in arch.labels()}
    gated = {g.gated_by: g for g in arch.gated_gates()}
    entries = {"a_0": ((), _square(d0))}
    for g in arch.gates:
        k = g.label
        if k in gated:
            x = gated[k]
            dg = _DERIVATIVES[x.g_name][1]
            entries[k] = ((k, x.label), _square(profiles[x.label], ((2, ((k, (dg, dg)),)),)))
        elif profiles[k][1]:
            avg = ((0, ((g.gated_by, (g.g_name,) * 2),)),) if g.form == "gated" else ()
            entries[k] = ((k,), _square(profiles[k], avg))
    return CellRules(
        reads=A + tuple((g, p) for g, p in W if g not in dict(A)),
        mean=mean,
        second=second,
        entries=entries,
        factors=_state_power_factors(A, W),
        update=_evaluate((), law, returns="{}, None"),
        d0=_evaluate(*d0),
        dk={k: _evaluate(*profiles[k]) for k in arch.labels() if k not in gated},
        has_cell=has_cell,
    )


# ---------------------------------------------------------------------------
# the moment steps of the quadrature cells


def _rho_s(state) -> float:
    # exact at c_s = 1 so that fully correlated copies stay bit-identical
    return state.q_s if state.c_s == 1.0 else state.c_s * state.sigma2_s + state.mu_s * state.mu_s


def _convex_mean(e, mu):
    """s' = sig(u_f) s + (1 - sig(u_f)) tanh(u_x): minimalRNN (x = "r")
    and GRU (x = "r2"); gamma, x and s are independent."""
    e_gam, e_x = e
    return e_gam * mu + (1.0 - e_gam) * e_x


def _convex_second(e, sq, mu, s2):
    (e_gam, e_x), (gam2, x2) = e, sq
    return gam2 * s2 + 2.0 * (e_gam - gam2) * mu * e_x + (1.0 - 2.0 * e_gam + gam2) * x2


# The peephole's derived update A s + W is the LSTM's cell update
# c' = sig(u_f) c + sig(u_i) tanh(u_r), lstm_cell_sampler._lstm_cell, to the
# bit. The LSTM's rules stay written out: its profiles are the peephole's
# times the output chain sig(u_o) dtanh(c'), but multiplied in another
# order, so reading the peephole's would change their bits.


def _peephole_mean(e, mu):
    e_gam, e_i, e_t = e
    return e_gam * mu + e_i * e_t


def _peephole_second(e, sq, mu, s2):
    (e_gam, e_i, e_t), (gam2, i2, t2) = e, sq
    return gam2 * s2 + 2.0 * e_gam * mu * e_i * e_t + i2 * t2


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
    """The sampled LSTM's moment step: (mu', Q', rho', cell') from the
    gates of the current state (the mapping preactivation_stats returns),
    cell' the advanced ensemble and rho' None when it is unpaired."""
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
    """The sampled correlation step: (cov, var_a, var_b), the output
    covariance and the two output variances of the coupled frame
    equilibrated from zero (lstm_cell_sampler._frame, whose last update
    chi reads), which the correlation map divides as cov / sqrt(var_a
    var_b), so identical chains give exactly 1."""
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

    reads, mean and second are a quadrature cell's moment step: reads
    lists the (gate, primitive) pairs g(u_k) the step reads, mean(e, mu)
    gives mu' from their means e = E[g(u_k)], in reads order, and the
    state's mean mu, and second(e, sq, mu, s2) gives Q' from their squares
    sq = E[g(u_k)^2] and s2 = Q, or rho' = E[s_a' s_b'] from their pair
    means sq = E[g(u_k,a) g(u_k,b)] at the gate correlations and s2 =
    E[s_a s_b]. The sampled LSTM has none: the moment maps call its steps
    (_lstm_step, _lstm_correlate) directly. entries is per-cell data, the
    same for every theta: by label, (weights, terms), with weights the
    gates whose recurrent variances sigma_k^2 multiply into every term's
    coefficient, in that order, and terms (number, shape) pairs, the
    number 1 or -2.
    factors(j, m) gives the reads whose products are the state-power
    factors a(j, m) and b(m) (_state_power_factors); both are None for the
    sampled LSTM. In an entry, a two-primitive gate factor holds one
    primitive per copy and s^2 stands for E[s_a s_b]: at full correlation
    these are single-network expectations (m1), at a correlation C pair
    ones whose sum is chi (jacobian._correlation_slope).
    update(s, u, c) -> (s', c') is the width-N update, c the carried cell
    or None. d0(s, u, c) is the derivative through the carried state
    (ds'/ds, or dh'/dc_prev for the LSTM) and dk[k](s, u, c) the derivative
    by u_k, for every gate that reaches the state directly; the LSTM's
    Jacobian frame multiplies them chain by chain. has_cell marks a cell
    state, whether it is the tracked state (peephole) or carried beside it
    (LSTM). A quadrature cell's update, d0, dk, entries and factors all
    derive from its affine law (_affine_cell); only its moment step is
    written out. The LSTM writes its rules out.
    """

    update: Callable
    d0: Callable
    dk: Mapping[str, Callable]
    reads: tuple = ()
    mean: Optional[Callable] = None
    second: Optional[Callable] = None
    entries: Optional[Mapping[str, tuple]] = None
    factors: Optional[Callable] = None
    has_cell: bool = False


_FORGET = (("f", "sig"),)

CELLS: Mapping[str, CellRules] = MappingProxyType(
    {
        "vanillaRNN": _affine_cell("vanillaRNN", lambda e, mu: e[0], lambda e, sq, mu, s2: sq[0], A=(), W=_FORGET),
        "minimalRNN": _affine_cell(
            "minimalRNN", _convex_mean, _convex_second, A=_FORGET, W=(("f", "omsig"), ("r", "tanh"))
        ),
        "GRU": _affine_cell("GRU", _convex_mean, _convex_second, A=_FORGET, W=(("f", "omsig"), ("r2", "tanh"))),
        # the output gate reads the cell but never feeds back into it
        "peepholeLSTM": _affine_cell(
            "peepholeLSTM", _peephole_mean, _peephole_second, A=_FORGET, W=(("i", "sig"), ("r", "tanh")), has_cell=True
        ),
        "LSTM": CellRules(
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
