"""Product-form machinery for closed exponential queueing networks.

Normalization constants G(m) are computed by one incremental engine,
``Convolution``: the infinite-server stations pool into a Poisson starting
row, and every other station is folded in by a linear-time recursion
(Buzen's for single servers).  Every table is kept in two redundant forms:

* an extended-range linear form, mantissa in [0.5, 1) with a per-entry
  base-2 exponent, so sums and products never under- or overflow no matter
  how wildly the per-station factors are scaled, and
* an independently accumulated natural-log form.

The two are cross-checked on every entry as it is built; disagreement or
any non-finite intermediate raises ``NumericalRangeError`` instead of
letting a garbage value escape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

_LN2 = math.log(2.0)
_ROW_SUM_TOL = 1e-12
_TRAFFIC_RESIDUAL_TOL = 1e-10
_CROSS_CHECK_TOL = 1e-9
_DIRECT_SOLVE_LIMIT = 1000


class ReducibleRoutingError(ValueError):
    """The routing chain is not irreducible (not strongly connected)."""


class NumericalRangeError(ArithmeticError):
    """A normalization quantity left the trustworthy numeric range."""


@dataclass(frozen=True)
class Station:
    """One service station of a closed network.

    ``servers`` is an integer for FCFS multi-server exponential stations and
    ``None`` for an infinite-server station, where ``rate`` is 1/mean and the
    effective rate with n customers is ``n * rate``.  ``rate_fn`` overrides
    both with an arbitrary non-decreasing load-dependent rate.
    """

    name: str
    rate: float = 1.0
    servers: int | None = 1
    rate_fn: Callable[[int], float] | None = None

    def __post_init__(self) -> None:
        if self.rate_fn is None:
            if not self.rate > 0:
                raise ValueError(f"station {self.name}: rate must be positive")
            if self.servers is not None and self.servers < 1:
                raise ValueError(f"station {self.name}: servers must be >= 1 or None")

    def service_rate(self, n: int) -> float:
        if n <= 0:
            return 0.0
        if self.rate_fn is not None:
            return float(self.rate_fn(n))
        if self.servers is None:
            return self.rate * n
        return self.rate * min(n, self.servers)

    @property
    def is_infinite_server(self) -> bool:
        return self.servers is None and self.rate_fn is None


def multi_server(name: str, rate: float, servers: int = 1) -> Station:
    return Station(name=name, rate=rate, servers=servers)


def infinite_server(name: str, mean: float) -> Station:
    """Infinite-server station with the given mean holding time.

    A zero mean is allowed (e.g. a travel leg of zero length); the station
    then never holds customers.
    """
    if mean < 0:
        raise ValueError(f"station {name}: mean must be non-negative")
    rate = math.inf if mean == 0 else 1.0 / mean
    return Station(name=name, rate=rate, servers=None)


def _check_routing(routing: np.ndarray) -> np.ndarray:
    r = np.asarray(routing, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError("routing matrix must be square")
    if np.any(r < 0):
        raise ValueError("routing probabilities must be non-negative")
    rows = r.sum(axis=1)
    if np.max(np.abs(rows - 1.0)) > _ROW_SUM_TOL:
        raise ValueError("routing matrix rows must sum to 1")
    edges = r > 0
    if not (_reaches_all(edges) and _reaches_all(edges.T)):
        raise ReducibleRoutingError("routing chain is reducible")
    return r


def _reaches_all(edges: np.ndarray) -> bool:
    """Breadth-first search: does node 0 reach every node along ``edges``?"""
    seen = np.zeros(len(edges), dtype=bool)
    seen[0] = True
    frontier = np.array([0])
    while frontier.size:
        frontier = np.flatnonzero(edges[frontier].any(axis=0) & ~seen)
        seen[frontier] = True
    return bool(seen.all())


@dataclass(frozen=True)
class ClosedNetwork:
    """Stations, an irreducible routing matrix, and a fixed population."""

    stations: tuple[Station, ...]
    routing: np.ndarray
    population: int

    def __post_init__(self) -> None:
        r = _check_routing(self.routing)
        if r.shape[0] != len(self.stations):
            raise ValueError("routing matrix size must match station count")
        if not (isinstance(self.population, int) and self.population >= 0):
            raise ValueError("population must be a non-negative integer")
        r.flags.writeable = False
        object.__setattr__(self, "routing", r)

    @property
    def num_stations(self) -> int:
        return len(self.stations)


@dataclass(frozen=True)
class VisitRatios:
    """Relative visit frequencies eta.  Only ratios matter downstream; any
    positive rescaling yields the same throughputs."""

    eta: np.ndarray
    normalized: bool = True

    def __post_init__(self) -> None:
        e = np.asarray(self.eta, dtype=float)
        if np.any(e < 0) or not np.any(e > 0):
            raise ValueError("visit ratios must be non-negative with at least one positive entry")
        e.flags.writeable = False
        object.__setattr__(self, "eta", e)

    def scaled(self, factor: float) -> "VisitRatios":
        if not factor > 0:
            raise ValueError("scale factor must be positive")
        return VisitRatios(self.eta * factor, normalized=False)


def solve_traffic(routing: np.ndarray) -> VisitRatios:
    """Probability-normalized solution of eta = eta R.

    Solves directly for moderate sizes and falls back to power iteration on
    very large chains; either way the residual is verified.
    """
    r = _check_routing(routing)
    n = r.shape[0]
    if n <= _DIRECT_SOLVE_LIMIT:
        a = r.T - np.eye(n)
        a[-1, :] = 1.0
        b = np.zeros(n)
        b[-1] = 1.0
        eta = np.linalg.solve(a, b)
    else:
        eta = np.full(n, 1.0 / n)
        for _ in range(200_000):
            # damped so that periodic chains converge too
            nxt = 0.5 * (eta + eta @ r)
            nxt /= nxt.sum()
            if np.max(np.abs(nxt - eta)) < 1e-15:
                eta = nxt
                break
            eta = nxt
    eta = np.where(np.abs(eta) < 1e-14, 0.0, eta)
    residual = float(np.max(np.abs(eta @ r - eta)))
    if residual >= _TRAFFIC_RESIDUAL_TOL or np.any(eta < 0):
        raise NumericalRangeError(
            f"traffic equations solved with residual {residual:.3e}")
    return VisitRatios(eta=eta, normalized=True)


# ---------------------------------------------------------------------------
# extended-range ladder arithmetic: a value is mantissa * 2**exponent with the
# mantissa in [0.5, 1), or (0.0, 0) for zero


def _ladder(x: float) -> tuple[float, int]:
    return math.frexp(x) if x != 0.0 else (0.0, 0)


def _mul(am: float, ae: int, bm: float, be: int) -> tuple[float, int]:
    m, k = math.frexp(am * bm)
    return (m, ae + be + k) if m != 0.0 else (0.0, 0)


def _add(am: float, ae: int, bm: float, be: int) -> tuple[float, int]:
    if bm == 0.0:
        return am, ae
    if am == 0.0:
        return bm, be
    if ae < be:
        am, ae, bm, be = bm, be, am, ae
    m, k = math.frexp(am + math.ldexp(bm, be - ae))
    return m, ae + k


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _log_add(a: float, b: float) -> float:
    if a < b:
        a, b = b, a
    if b == -math.inf:
        return a
    return a + math.log1p(math.exp(b - a))


def _load_factor(station: Station, eta_j: float, n: int) -> float:
    """g_j(n) / g_j(n-1) = eta_j / mu_j(n), checked."""
    mu = station.service_rate(n)
    if not mu > 0:
        raise ValueError(f"station {station.name}: rate at load {n} must be positive")
    ratio = 0.0 if math.isinf(mu) else eta_j / mu
    if not (math.isfinite(ratio) and ratio >= 0):
        raise NumericalRangeError(
            f"station {station.name}: invalid load factor at n={n}")
    return ratio


def _station_factors(station: Station, eta_j: float, n_max: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-station factors g_j(n) = prod_{k<=n} eta_j / mu_j(k) in ladder and
    log form, for n = 0..n_max."""
    mant = np.zeros(n_max + 1)
    exp2 = np.zeros(n_max + 1, dtype=np.int64)
    logs = np.full(n_max + 1, -math.inf)
    mant[0], exp2[0], logs[0] = 0.5, 1, 0.0
    m, e, lg = 0.5, 1, 0.0
    for n in range(1, n_max + 1):
        ratio = _load_factor(station, eta_j, n)
        if ratio == 0.0:
            break  # g stays zero from here on
        m, e = _mul(m, e, *math.frexp(ratio))
        lg += math.log(ratio)
        mant[n], exp2[n], logs[n] = m, e, lg
    return mant, exp2, logs


# ---------------------------------------------------------------------------
# the normalization engine


class _Row:
    """G(0..m) over the stations folded so far, in ladder and log form."""

    __slots__ = ("mant", "exp", "log")

    def __init__(self) -> None:
        self.mant, self.exp, self.log = [0.5], [1], [0.0]

    def push(self, mant: float, exp2: int, log: float) -> None:
        self.mant.append(mant)
        self.exp.append(exp2)
        self.log.append(log)


class _PooledLane(_Row):
    """All infinite-server stations at once: g(m) = kappa^m / m!, where kappa
    is the sum of their loads."""

    __slots__ = ("kappa",)

    def __init__(self, kappa: float) -> None:
        super().__init__()
        self.kappa = kappa

    def extend(self, prev: None, m: int) -> None:
        c = self.kappa / m
        self.push(*_mul(self.mant[-1], self.exp[-1], *_ladder(c)),
                  self.log[-1] + _log(c))


class _BuzenFold(_Row):
    """A single-server station with load x, by Buzen's recursion
    G(m) = G_prev(m) + x * G(m - 1): O(1) per column, nothing cancels.

    The hot path of every fleet search, so the ladder and log steps are
    written out here rather than calling ``_mul``/``_add``/``_log_add``."""

    __slots__ = ("xm", "xe", "xl")

    def __init__(self, x: float) -> None:
        super().__init__()
        self.xm, self.xe = _ladder(x)
        self.xl = _log(x)

    def extend(self, prev: _Row, m: int) -> None:
        frexp, ldexp = math.frexp, math.ldexp
        am, ae = prev.mant[m], prev.exp[m]
        bm, k = frexp(self.mant[-1] * self.xm)
        be = self.exp[-1] + self.xe + k
        if bm == 0.0:
            gm, ge = am, ae
        elif am == 0.0:
            gm, ge = bm, be
        elif ae >= be:
            gm, k = frexp(am + ldexp(bm, be - ae))
            ge = ae + k
        else:
            gm, k = frexp(bm + ldexp(am, ae - be))
            ge = be + k
        la, lb = prev.log[m], self.log[-1] + self.xl
        if la < lb:
            la, lb = lb, la
        self.mant.append(gm)
        self.exp.append(ge)
        self.log.append(la if lb == -math.inf else la + math.log1p(math.exp(lb - la)))


class _ServerFold(_Row):
    """An s-server station (s > 1) with load x, folded as G = A + B, where

        A(m) = sum_{n < s} x^n / n! * G_prev(m - n)
        B(m) = x^s / s! * G_prev(m - s) + (x / s) * B(m - 1),   B(s-1) = 0.

    Every term is positive, so nothing cancels; a column costs O(s)."""

    __slots__ = ("servers", "f", "step", "b")

    def __init__(self, x: float, servers: int) -> None:
        super().__init__()
        self.servers = servers
        f = [(0.5, 1, 0.0)]   # x^n / n! for n = 0..s
        for n in range(1, servers + 1):
            m, e, lg = f[-1]
            f.append((*_mul(m, e, *_ladder(x / n)), lg + _log(x / n)))
        self.f = f
        self.step = (*_ladder(x / servers), _log(x / servers))
        self.b = (0.0, 0, -math.inf)   # B(m - 1)

    def extend(self, prev: _Row, m: int) -> None:
        s = self.servers
        pm, pe, pl = prev.mant, prev.exp, prev.log
        am, ae, al = pm[m], pe[m], pl[m]
        for n in range(1, min(m, s - 1) + 1):
            fm, fe, fl = self.f[n]
            am, ae = _add(am, ae, *_mul(fm, fe, pm[m - n], pe[m - n]))
            al = _log_add(al, fl + pl[m - n])
        if m >= s:
            fm, fe, fl = self.f[s]
            xm, xe, xl = self.step
            om, oe, ol = self.b
            self.b = (*_add(*_mul(fm, fe, pm[m - s], pe[m - s]), *_mul(om, oe, xm, xe)),
                      _log_add(fl + pl[m - s], ol + xl))
        bm, be, bl = self.b
        self.push(*_add(am, ae, bm, be), _log_add(al, bl))


class _LoadFold(_Row):
    """A station with a load-dependent ``rate_fn``: the direct O(m) sum
    G(m) = sum_n g(n) G_prev(m - n) over its factors g."""

    __slots__ = ("station", "eta", "g")

    def __init__(self, station: Station, eta_j: float) -> None:
        super().__init__()
        self.station, self.eta = station, eta_j
        self.g = _Row()

    def extend(self, prev: _Row, m: int) -> None:
        g = self.g
        ratio = _load_factor(self.station, self.eta, m)
        g.push(*_mul(g.mant[-1], g.exp[-1], *_ladder(ratio)), g.log[-1] + _log(ratio))
        tm, te, tl = 0.0, 0, -math.inf
        for n in range(m + 1):
            tm, te = _add(tm, te, *_mul(g.mant[n], g.exp[n],
                                        prev.mant[m - n], prev.exp[m - n]))
            tl = _log_add(tl, g.log[n] + prev.log[m - n])
        self.push(tm, te, tl)


class Convolution:
    """Normalization constants G(0..N) of a station set, extended one
    population at a time so that a fleet search reuses all earlier work.

    The infinite-server stations pool into the first row; the others are
    folded in ``node_order``, each as one more row, so a column costs O(s)
    per s-server station and O(m) for a ``rate_fn`` station.  The last row is
    the table, and the row before it is the table without the last-folded
    station.  Each new entry of the table is cross-checked ladder against
    log as it is built; a table that failed the check keeps failing.
    """

    def __init__(self, stations: Sequence[Station],
                 eta: VisitRatios | Sequence[float] | np.ndarray,
                 node_order: Iterable[int] | None = None) -> None:
        etas = _as_eta_array(eta, len(stations))
        order = tuple(node_order) if node_order is not None else tuple(range(len(stations)))
        if sorted(order) != list(range(len(stations))):
            raise ValueError("node_order must be a permutation of station indices")
        self.node_order = order
        kappa = 0.0
        folds: list[_Row] = []
        for idx in order:
            st, e = stations[idx], float(etas[idx])
            if st.is_infinite_server:
                kappa += 0.0 if math.isinf(st.rate) else e / st.rate
            elif st.rate_fn is not None:
                folds.append(_LoadFold(st, e))
            elif st.servers == 1:
                folds.append(_BuzenFold(e / st.rate))
            else:
                folds.append(_ServerFold(e / st.rate, st.servers))
        self._rows: list = [_PooledLane(kappa)] + folds
        self._n = 0
        self._error: Exception | None = None

    @property
    def population(self) -> int:
        return self._n

    def extend_to(self, population: int) -> None:
        if population < 0:
            raise ValueError("population must be non-negative")
        if self._error is not None:
            raise self._error
        try:
            for m in range(self._n + 1, population + 1):
                prev = None
                for row in self._rows:
                    row.extend(prev, m)
                    prev = row
                _check_entry(m, prev.mant[m], prev.exp[m], prev.log[m])
                self._n = m
        except (ArithmeticError, ValueError) as exc:
            self._error = exc
            raise

    def ratio(self, m_num: int, m_den: int, num_row: int = -1) -> float:
        """G_row(m_num) / G(m_den) for built populations, where row -1 is the
        full table and row -2 the table without the last-folded station."""
        num, den = self._rows[num_row], self._rows[-1]
        return math.ldexp(num.mant[m_num] / den.mant[m_den],
                          num.exp[m_num] - den.exp[m_den])

    def table(self, population: int | None = None) -> "ConvolutionTable":
        n = self._n if population is None else population
        self.extend_to(n)
        last = self._rows[-1]
        mant = np.array(last.mant[:n + 1])
        exp2 = np.array(last.exp[:n + 1], dtype=np.int64)
        logs = np.array(last.log[:n + 1])
        _verify_table(mant, exp2, logs)
        for arr in (mant, exp2, logs):
            arr.flags.writeable = False
        return ConvolutionTable(mant, exp2, logs, self.node_order)


@dataclass(frozen=True, slots=True)
class ConvolutionTable:
    """Normalization constants G(0..N) for a fixed station set and eta.

    ``mantissa``/``exponent`` hold the extended-range linear values,
    G(m) = mantissa[m] * 2**exponent[m]; ``log_values`` is the independent
    log-domain companion.
    """

    mantissa: np.ndarray
    exponent: np.ndarray
    log_values: np.ndarray
    node_order: tuple[int, ...]

    @property
    def population(self) -> int:
        return len(self.mantissa) - 1

    def value(self, m: int) -> float:
        """Plain float G(m); may overflow to inf for extreme tables."""
        try:
            return math.ldexp(self.mantissa[m], int(self.exponent[m]))
        except OverflowError:
            return math.inf

    def log_value(self, m: int) -> float:
        mant = self.mantissa[m]
        if mant == 0.0:
            return -math.inf
        return math.log(mant) + _LN2 * float(self.exponent[m])

    def ratio(self, m_num: int, m_den: int) -> float:
        """G(m_num) / G(m_den) without leaving the double range."""
        if self.mantissa[m_den] == 0.0:
            raise NumericalRangeError("ratio denominator is zero")
        q = self.mantissa[m_num] / self.mantissa[m_den]
        return math.ldexp(q, int(self.exponent[m_num] - self.exponent[m_den]))


def _as_eta_array(eta: VisitRatios | Sequence[float] | np.ndarray,
                  count: int) -> np.ndarray:
    arr = eta.eta if isinstance(eta, VisitRatios) else np.asarray(eta, dtype=float)
    if arr.shape != (count,):
        raise ValueError(f"expected {count} visit ratios, got shape {arr.shape}")
    if np.any(arr < 0) or not np.any(arr > 0):
        raise ValueError("visit ratios must be non-negative with at least one positive entry")
    return np.asarray(arr, dtype=float)


def _check_entry(m: int, mant: float, exp2: int, log: float) -> None:
    """G(m) is positive and finite, and its two forms agree."""
    if not math.isfinite(mant):
        raise NumericalRangeError("non-finite mantissa in convolution table")
    if mant <= 0.0:
        raise NumericalRangeError("normalization constant vanished; network cannot hold its population")
    ladder_log = math.log(mant) + _LN2 * exp2
    if not (math.isfinite(log)
            and abs(ladder_log - log) <= _CROSS_CHECK_TOL * max(1.0, abs(log))):
        raise NumericalRangeError(
            "log-domain and extended-range paths disagree at population "
            f"{m}: {ladder_log!r} vs {log!r}")


def _verify_table(mant: np.ndarray, exp2: np.ndarray, logs: np.ndarray) -> None:
    if mant[0] != 0.5 or exp2[0] != 1:
        raise NumericalRangeError("convolution lost the empty-population unit entry")
    for m, (mv, ev, lv) in enumerate(zip(mant.tolist(), exp2.tolist(), logs.tolist())):
        _check_entry(m, mv, ev, lv)


def convolve_stations(stations: Sequence[Station],
                      eta: VisitRatios | Sequence[float] | np.ndarray,
                      population: int,
                      node_order: Iterable[int] | None = None) -> ConvolutionTable:
    """Convolution over an explicit station list (no routing needed)."""
    if population < 0:
        raise ValueError("population must be non-negative")
    return Convolution(stations, eta, node_order).table(population)


def buzen_convolve(net: ClosedNetwork,
                   eta: VisitRatios | Sequence[float] | np.ndarray,
                   node_order: Iterable[int] | None = None) -> ConvolutionTable:
    """Normalization table for a closed network at its population."""
    return convolve_stations(net.stations, eta, net.population, node_order)


def throughput(table: ConvolutionTable, population: int | None = None) -> float:
    """Overall throughput TH(N) = G(N-1)/G(N) on the eta scale that built
    the table."""
    n = table.population if population is None else population
    if n < 1:
        raise ValueError("throughput needs at least one customer")
    if n > table.population:
        raise ValueError(f"table only covers populations up to {table.population}")
    return table.ratio(n - 1, n)


def node_throughputs(table: ConvolutionTable,
                     eta: VisitRatios | Sequence[float] | np.ndarray,
                     population: int | None = None) -> np.ndarray:
    """Per-station throughputs TH_j = eta_j * TH for the eta that built the
    table (any common rescaling of eta cancels in the ratio)."""
    arr = eta.eta if isinstance(eta, VisitRatios) else np.asarray(eta, dtype=float)
    return arr * throughput(table, population)


def marginal_distribution(stations: Sequence[Station],
                          eta: VisitRatios | Sequence[float] | np.ndarray,
                          table: ConvolutionTable,
                          node: int) -> np.ndarray:
    """Stationary distribution of the queue length at one station.

    P(n_node = k) = g_node(k) * G_without_node(N - k) / G(N), with the
    complement re-folded once in linear time; the result sums to 1 up to
    numerical round-off.
    """
    etas = _as_eta_array(eta, len(stations))
    n = table.population
    if not 0 <= node < len(stations):
        raise ValueError(f"no station with index {node}")
    tm, te = table.mantissa.tolist(), table.exponent.tolist()
    gm, ge, _ = _station_factors(stations[node], float(etas[node]), n)
    rest = [i for i in range(len(stations)) if i != node]
    if rest:
        comp = convolve_stations([stations[i] for i in rest], etas[rest], n)
        cm, ce = comp.mantissa.tolist(), comp.exponent.tolist()
    else:
        cm, ce = [0.5] + [0.0] * n, [1] + [0] * n
    probs = np.zeros(n + 1)
    for k in range(n + 1):
        num = float(gm[k]) * cm[n - k]
        if num != 0.0:
            probs[k] = math.ldexp(num / tm[n], int(ge[k]) + ce[n - k] - te[n])
    total = float(probs.sum())
    if not math.isfinite(total) or abs(total - 1.0) > 1e-10:
        raise NumericalRangeError(f"marginal distribution sums to {total!r}")
    probs.flags.writeable = False
    return probs


def mean_queue_lengths(stations: Sequence[Station],
                       eta: VisitRatios | Sequence[float] | np.ndarray,
                       table: ConvolutionTable) -> np.ndarray:
    """Expected customers at each station; sums to the population."""
    n = table.population
    ks = np.arange(n + 1)
    return np.array([
        float((marginal_distribution(stations, eta, table, i) * ks).sum())
        for i in range(len(stations))
    ])
