"""Normalization constants of closed product-form networks.

Normalization constants G(m) are computed by one engine over (load,
servers) pairs and the pooled lane load kappa: ``Convolution`` folds the
queueing stations into a table R by linear-time recursions
(Buzen's for single servers), and ``LaneLast`` folds the infinite-server
stations, pooled into one Poisson lane, in last.  Every table is kept in
two redundant forms:

* an extended-range linear form, mantissa in [0.5, 1) with a per-entry
  base-2 exponent, so sums and products never under- or overflow no matter
  how wildly the per-station factors are scaled, and
* an independently accumulated natural-log form.

The two are cross-checked on every entry before an engine first serves
it; disagreement or any non-finite intermediate raises
``NumericalRangeError`` instead of letting a garbage value escape.

``LaneLast`` starts and stops each sum where its head and its tail are
certified negligible, so that R and the lane factors are built only as
far as the sums read them.
``shared_lane_last`` hands one lane-last table, and its engine or every
row of it but the last, on from request to request.  The explicit station
lists of the oracles are turned into these inputs in ``hubfleet.oracle``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

_LN2 = math.log(2.0)
_CROSS_CHECK_TOL = 1e-9
# a lane-last sum stops once the terms left are certified to sum to at most
# this share of the terms taken, far below a double's rounding
_TAIL = 2.0 ** -60
# R grows to where a lane-last sum's terms are bounded below 2**-62 of the
# largest, so that the sum certifies its tail within what R holds
_REACH = -62.0 * _LN2
# lane factors kappa^j / j! are held in blocks of this many columns
_BLOCK = 64


class NumericalRangeError(ArithmeticError):
    """A normalization quantity left the trustworthy numeric range."""


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


# ---------------------------------------------------------------------------
# the normalization engine


class _Row:
    """G(0..m) over the stations folded so far, in ladder and log form.

    ``build(prev, stop)`` appends columns from the row's own length up to
    ``stop``, given ``prev``, the row before it, built that far already.
    Each row binds its constants once and runs its own loop over the new
    columns."""

    __slots__ = ("mant", "exp", "log")

    def __init__(self) -> None:
        self.mant, self.exp, self.log = [0.5], [1], [0.0]


class _PooledLane(_Row):
    """All infinite-server stations at once: g(m) = kappa^m / m!, where kappa
    is the sum of their loads; with kappa = 0, the empty network's row.

    Column i holds g(start + i).  A row that starts past 0 begins at
    kappa^start / start!, computed directly (``_lane_anchor``), so each of
    its columns depends only on kappa and its m, whichever row holds it."""

    __slots__ = ("kappa", "start")

    def __init__(self, kappa: float, start: int = 0) -> None:
        super().__init__()
        self.kappa, self.start = kappa, start
        if start:
            self.mant[0], self.exp[0], self.log[0] = _lane_anchor(kappa, start)

    def build(self, prev: None, stop: int) -> None:
        frexp, log = math.frexp, math.log
        kappa, mant, exp2, lg = self.kappa, self.mant, self.exp, self.log
        gm, ge, gl = mant[-1], exp2[-1], lg[-1]
        start = self.start
        for m in range(start + len(lg), start + stop + 1):
            c = kappa / m
            if c == 0.0:   # kappa is 0, or so small that kappa / m underflows
                gm, ge, gl = 0.0, 0, -math.inf
            else:
                cm, ce = frexp(c)
                gm, k = frexp(gm * cm)
                ge += ce + k
                gl += log(c)
            mant.append(gm)
            exp2.append(ge)
            lg.append(gl)


def _lane_anchor(kappa: float, n: int) -> tuple[float, int, float]:
    """kappa^n / n! for n >= 1.  With kappa = p / 2**s exactly, the ladder
    form is p^n / n! * 2**(-s n), the quotient rounded once from p^n and n!
    each held to 128 bits; the log form is n log kappa - lgamma(n + 1).
    Zero where the upward row holds zero: when kappa / n underflows."""
    if kappa / n == 0.0:
        return 0.0, 0, -math.inf
    p, q = kappa.as_integer_ratio()   # q is a power of two
    num, e = _power_bits(p, n)
    den, d = _factorial_bits(n)
    gm, k = math.frexp(num / den)   # int / int rounds correctly
    return (gm, e - d - n * (q.bit_length() - 1) + k,
            n * math.log(kappa) - math.lgamma(n + 1))


def _truncated(x: int, e: int) -> tuple[int, int]:
    """x * 2**e with x cut to its leading 128 bits."""
    cut = x.bit_length() - 128
    return (x >> cut, e + cut) if cut > 0 else (x, e)


def _power_bits(p: int, n: int) -> tuple[int, int]:
    """p^n as x * 2**e, x to 128 bits, by binary powering: each cut loses
    under 2**-127 of the value, far below a double's rounding."""
    x, e, b, be = 1, 0, p, 0
    while True:
        if n & 1:
            x, e = _truncated(x * b, e + be)
        n >>= 1
        if not n:
            return x, e
        b, be = _truncated(b * b, 2 * be)


@functools.lru_cache(maxsize=None)
def _factorial_bits(n: int) -> tuple[int, int]:
    """n! as x * 2**e, x its leading 128 bits.  Only block starts, the
    multiples of 64 up to the largest fleet asked for, are ever held."""
    return _truncated(math.factorial(n), 0)


class _BuzenFold(_Row):
    """A single-server station with load x, by Buzen's recursion
    G(m) = G_prev(m) + x * G(m - 1): O(1) per column, nothing cancels.

    The hot path of every fleet search, so the ladder and log steps are
    written out here rather than calling ``_mul``/``_add``/``_log_add``,
    as ``_ServerFold`` does.  The product x * G(m - 1) of two mantissas in
    [0.5, 1) lies in [0.25, 1) and is normalized only with the sum; the sum
    rounds the same at either scale, so the result is that of
    ``_add(G_prev, _mul(x, G))`` bit for bit.  ``step`` is x in ladder and
    log form: the factor a station's weight gains per customer once all its
    servers are busy."""

    __slots__ = ("step",)

    def __init__(self, x: float) -> None:
        super().__init__()
        self.step = (*_ladder(x), _log(x))

    def build(self, prev: _Row, stop: int) -> None:
        frexp, ldexp, log1p, exp = math.frexp, math.ldexp, math.log1p, math.exp
        (xm, xe, xl), inf = self.step, math.inf
        mant, exp2, log = self.mant, self.exp, self.log
        pm, pe, pl = prev.mant, prev.exp, prev.log
        gm, ge, gl = mant[-1], exp2[-1], log[-1]
        for m in range(len(log), stop + 1):
            am, ae = pm[m], pe[m]
            bm = gm * xm
            be = ge + xe
            if bm == 0.0:
                gm, ge = am, ae
            elif am == 0.0:
                gm, k = frexp(bm)
                ge = be + k
            elif ae >= be:
                gm, k = frexp(am + ldexp(bm, be - ae))
                ge = ae + k
            else:
                gm, k = frexp(bm + ldexp(am, ae - be))
                ge = be + k
            la, lb = pl[m], gl + xl
            if la < lb:
                la, lb = lb, la
            gl = la if lb == -inf else la + log1p(exp(lb - la))
            mant.append(gm)
            exp2.append(ge)
            log.append(gl)


class _ServerFold(_Row):
    """An s-server station (s > 1) with load x, folded as G = A + B, where

        A(m) = sum_{n < s} x^n / n! * G_prev(m - n)
        B(m) = x^s / s! * G_prev(m - s) + (x / s) * B(m - 1),   B(s-1) = 0.

    Every term is positive, so nothing cancels; a column costs O(s).  The
    factor x^n / n! is built when a column first needs it, so a station
    with more servers than the table has customers costs no more than one
    with as many.  Every step goes through ``_mul``, ``_add`` and
    ``_log_add``: multi-server stations are rare and their rows shallow in
    fleet searches, so this fold, unlike ``_BuzenFold``, gives up speed on
    deep rows for one copy of the arithmetic."""

    __slots__ = ("servers", "x", "f", "step", "b")

    def __init__(self, x: float, servers: int) -> None:
        super().__init__()
        self.servers = servers
        self.x = x
        self.f = [(0.5, 1, 0.0)]   # x^n / n! for n = 0..min(m, s)
        self.step = (*_ladder(x / servers), _log(x / servers))
        self.b = (0.0, 0, -math.inf)   # B at the row's last column

    def build(self, prev: _Row, stop: int) -> None:
        s, x, f = self.servers, self.x, self.f
        while len(f) <= min(stop, s):
            fm, fe, fl = f[-1]
            c = x / len(f)
            f.append((*_mul(fm, fe, *_ladder(c)), fl + _log(c)))
        pm, pe, pl = prev.mant, prev.exp, prev.log
        xm, xe, xl = self.step
        om, oe, ol = self.b
        mant, exp2, log = self.mant, self.exp, self.log
        for m in range(len(log), stop + 1):
            # A(m): the sum of f(n) G_prev(m - n) over n < s, from n = 0
            am, ae, al = pm[m], pe[m], pl[m]
            for n in range(1, min(m, s - 1) + 1):
                fm, fe, fl = f[n]
                am, ae = _add(am, ae, *_mul(fm, fe, pm[m - n], pe[m - n]))
                al = _log_add(al, fl + pl[m - n])
            if m >= s:
                # B(m) = f(s) G_prev(m - s) + (x / s) B(m - 1)
                fm, fe, fl = f[s]
                om, oe = _add(*_mul(fm, fe, pm[m - s], pe[m - s]),
                              *_mul(om, oe, xm, xe))
                ol = _log_add(fl + pl[m - s], ol + xl)
            gm, ge = _add(am, ae, om, oe)   # G(m) = A(m) + B(m)
            mant.append(gm)
            exp2.append(ge)
            log.append(_log_add(al, ol))
        self.b = (om, oe, ol)


class Convolution:
    """Normalization constants R(0..N) of a set of queueing stations,
    extended on demand so that a fleet search reuses all earlier work.

    ``loads`` holds (load, servers) per station in fold order.  Row 0 is
    the empty network's, and each station is folded in as one more row, so
    a column costs O(s) per s-server station.  The last row is the table,
    and the row before it is the table without the last-folded station.
    New columns are built one row at a time, each row from its own length.
    Each entry of the table is cross-checked ladder against log when this
    engine first serves it.  Nothing records a failed check: the entries
    before it keep serving, every request past it checks it again, and the
    engine grows on once it passes.
    """

    def __init__(self, loads: Iterable[tuple[float, int]]) -> None:
        self._rows: list = [_PooledLane(0.0)] + [
            _BuzenFold(x) if servers == 1 else _ServerFold(x, servers)
            for x, servers in loads]
        self._n = 0

    @property
    def population(self) -> int:
        return self._n

    def extend_to(self, population: int) -> None:
        if population < 0:
            raise ValueError("population must be non-negative")
        if population <= self._n:
            return
        # a row may hold columns past the checked ones already, if a request
        # that failed its check built them or another engine shares the row;
        # it then builds only the rest, and one that holds them all is skipped
        prev = None
        for row in self._rows:
            if len(row.log) <= population:
                row.build(prev, population)
            prev = row
        table = prev
        for m in range(self._n + 1, population + 1):
            _check_entry(m, table.mant[m], table.exp[m], table.log[m])
            self._n = m


class LaneLast:
    """Normalization constants of a station set whose infinite-server
    stations, with summed load kappa, are folded in last, over the engine
    ``rest`` of the other stations:

        G(m) = sum_k t_k,   t_k = kappa^(m - k) / (m - k)! * R(k),

    with R a row of ``rest``: row -1 is its table, row -2 the table without
    its last-folded station.  Each entry is one combine, summed in ladder
    and in log form from the rows of ``rest`` and the lane factors, checked
    by ``_check_entry`` when first asked for, and kept.  A failed check is
    not kept, so a later request checks the entry again.

    R is log-concave, being a convolution of log-concave station factors,
    so the ratio q_k = t_(k+1) / t_k = (m - k) / kappa * R(k+1) / R(k) never
    rises with k, and each sum reads only the terms that are not certified
    negligible:

    * Tail.  After term K with q_K < 1, the terms left sum to at most
      t_K q_K / (1 - q_K); once that is at most 2**-60 of the sum so far,
      the sum stops.  The test runs only on terms below 2**-50 of the
      largest so far: a term above that passes it only if the next one
      falls below, so the sum stops at most one term later.  A combine over
      fewer customers, or over the row before R's last station, has smaller
      ratios, so it stops no later than G(m).
    * Head.  A station of load x on s servers multiplies R by at least x / s
      per customer, so R(k) / R(k-1) >= rho, the largest such x / s in the
      row, and with j = m - k and c = kappa / rho, t_(k-1) <= t_k c / (j + 1)
      and t_k <= t_m c^j / j!.  Where r = c / (j + 1) < 1, the terms below
      k sum to at most t_k r / (1 - r); the sum starts at the largest k at
      which that is at most 2**-60 of t_m, and at k = 0 where none is.
      The bound falls with j once r < 1, so the first negligible j is one
      number per row, found once by bisection, and the start depends on
      kappa, the row's loads and m alone.
    * R.  ``rest`` is built on only when a sum reaches its end, at a column
      k with R(k + 1) still to build, and then once (``_grown``): past k
      every R(i+1) / R(i) lies between rho and R(k) / R(k-1), so the sum
      stops no later than it would with the largest of them, and about
      where it would with the smallest.  R grows to that point, but at
      least as far as doubling would grow it, no further than the largest
      ratios need, and never past m.  A sum with given ratios stops at the
      first term below 2**-62 of the largest term and of the sum so far
      whose tail bound is so too, where the tail test passes.
    * Lane factors.  kappa^j / j! lies in blocks of 64 (``_PooledLane``
      rows): block b begins at j = 64 b, from kappa^(64 b) / (64 b)! worked
      out directly, and is built upward only as far as a sum reads it.
      Every factor depends on kappa and j alone, so every entry depends only
      on kappa, the loads and m, in whatever order entries are asked for.
    """

    __slots__ = ("rest", "_kappa", "_log_kappa", "_log_rho", "_heads", "_blocks",
                 "_entries")

    def __init__(self, kappa: float, rest: Convolution) -> None:
        self.rest = rest
        self._kappa = kappa
        self._log_kappa = _log(kappa)
        # log rho for each row of rest; the empty network's row bounds nothing
        self._log_rho = [-math.inf]
        for row in rest._rows[1:]:
            self._log_rho.append(max(self._log_rho[-1], row.step[2]))
        self._heads: dict[int, int] = {}   # per row: the first negligible j
        self._blocks: dict[int, _PooledLane] = {}
        self._entries: dict[tuple[int, int], tuple[float, int, float]] = {}

    def entry(self, m: int, row: int = -1) -> tuple[float, int, float]:
        """G(m) over ``row`` of ``rest`` as (mantissa, exponent, log)."""
        key = (row, m)
        got = self._entries.get(key)
        if got is None:
            if m < 0:
                raise ValueError("population must be non-negative")
            got = self._combine(m, row)
            _check_entry(m, *got)
            self._entries[key] = got
        return got

    def ratio(self, m_num: int, m_den: int, num_row: int = -1) -> float:
        """G(m_num) over ``num_row`` of ``rest``, divided by G(m_den)."""
        nm, ne, _ = self.entry(m_num, num_row)
        dm, de, _ = self.entry(m_den)
        return math.ldexp(nm / dm, ne - de)

    def table(self, population: int) -> "ConvolutionTable":
        """G(0..population) over the table of ``rest``.  The last entry is
        combined first: it reads R furthest, so R grows for it alone."""
        self.entry(population)
        mant, exp2, log = zip(*[self.entry(m) for m in range(population + 1)])
        return ConvolutionTable(mant, exp2, log)

    def _block(self, b: int, top: int) -> _PooledLane:
        """Block b of the lane factors, built to its column ``top``."""
        lane = self._blocks.get(b)
        if lane is None:
            lane = self._blocks[b] = _PooledLane(self._kappa, b * _BLOCK)
        if len(lane.log) <= top:
            lane.build(None, top)
        return lane

    def _head(self, m: int, row: int) -> int:
        """The largest j = m - k whose term the sum at m reads: m, or the
        first negligible j if that is below m."""
        first = self._heads.get(row)
        if first is None:
            log_c = self._log_kappa - self._log_rho[row]   # log kappa / rho
            if not _negligible_head(log_c, m):
                return m
            # r < 1 needs j + 1 > c, and no fleet comes near e**700
            last = math.ceil(math.exp(min(log_c, 700.0))) - 1
            first = m
            while first - last > 1:
                mid = (first + last) // 2
                if _negligible_head(log_c, mid):
                    first = mid
                else:
                    last = mid
            self._heads[row] = first
        return min(m, first)

    def _combine(self, m: int, row: int) -> tuple[float, int, float]:
        ldexp, log, exp = math.ldexp, math.log, math.exp
        kappa, rest = self._kappa, self.rest
        j = m   # term k takes the lane factor of j = m - k
        while j and kappa / j == 0.0:   # kappa is 0, or kappa^j / j! underflowed
            j -= 1
        if j:
            j = min(j, self._head(m, row))
        k = m - j
        built = rest.population
        if k > built:
            rest.extend_to(k)
            built = k
        r = rest._rows[row]
        rm, re_, rl = r.mant, r.exp, r.log
        b, i = divmod(j, _BLOCK)   # the lane factor of j is column i of block b
        lane = self._block(b, i)
        lm, le, ll = lane.mant, lane.exp, lane.log
        log_kappa, log_rho = self._log_kappa, self._log_rho[row]
        # the ladder sum is acc * 2**base, base the largest term exponent
        # so far; the log sum is top + log(lsum), top the largest log term
        acc, base = 0.0, le[i] + re_[k]
        lsum, top = 0.0, ll[i] + rl[k]
        while True:
            t, e = lm[i] * rm[k], le[i] + re_[k]
            if e > base:
                acc = ldexp(acc, base - e) + t
                base = e
            else:
                acc += ldexp(t, e - base)
            tl = ll[i] + rl[k]
            if tl > top:
                lsum = lsum * exp(top - tl) + 1.0
                top = tl
            else:
                lsum += exp(tl - top)
            if k == m:
                break
            if k == built:
                built = _grown(m, k, rl, log_rho - log_kappa, log_kappa,
                               _log(t / acc) + (e - base) * _LN2)
                rest.extend_to(built)
            if e - base < -50:
                lq = log(j) - log_kappa + rl[k + 1] - rl[k]   # log q_k
                if lq < 0.0:
                    q = exp(lq)
                    if ldexp(t / acc, e - base) * q <= _TAIL * (1.0 - q):
                        break
            k += 1
            j -= 1
            i -= 1
            if i < 0:
                b -= 1
                i = _BLOCK - 1
                lane = self._block(b, i)
                lm, le, ll = lane.mant, lane.exp, lane.log
        mant, shift = math.frexp(acc)
        return mant, base + shift, top + log(lsum)


def _negligible_head(log_c: float, j: int) -> bool:
    """Whether the terms below k = m - j sum to at most 2**-60 of t_m, by
    the bound t_k r / (1 - r) <= t_m c^j / j! r / (1 - r), r = c / (j + 1)
    (see ``LaneLast``)."""
    lr = log_c - math.log(j + 1)   # log r
    if lr >= 0.0:
        return False
    bound = j * log_c - math.lgamma(j + 1) + lr - math.log1p(-math.exp(lr))
    return math.exp(min(bound, 0.0)) <= _TAIL


def _grown(m: int, k: int, rl: list, log_low: float, log_kappa: float,
           log_term: float) -> int:
    """How far R grows for a lane-last sum at m that reached its end at
    column k: ``log_low`` is log rho / kappa, the lowest R(i+1) / R(i) can
    be over kappa, ``rl`` R's row in log form, and ``log_term`` log t_k over
    the sum so far.  The sum stops no later than it would with the highest
    ratios, R(k) / R(k-1), and about where it would with the lowest; R grows
    to that point, but at least as far as doubling it would, never further
    than the highest ratios need and never past m."""
    end = max(2 * k + 1, _reach(m, k, log_low, log_term))
    if k:
        end = min(end, _reach(m, k, rl[k] - rl[k - 1] - log_kappa, log_term))
    return min(m, end)


def _reach(m: int, k: int, log_step: float, log_term: float) -> int:
    """The column of R up to which a lane-last sum at m reads if every
    ratio R(i+1) / R(i) past its column k is kappa times ``log_step``'s
    exponential, given ``log_term``, log t_k over the sum so far: the sum
    stops at the first term below 2**-62 of its largest and of the sum so
    far whose tail bound t q / (1 - q) is too, and reads R one column on."""
    log, log1p, exp = math.log, math.log1p, math.exp
    top = 0.0   # the largest term so far, over the sum so far
    while k < m:
        lq = log(m - k) + log_step   # log q_k
        if lq < 0.0:
            lead = log_term - top
            if lead <= _REACH and lead + lq - log1p(-exp(lq)) <= _REACH:
                break
        log_term += lq
        if log_term > top:
            top = log_term
        k += 1
    return min(m, k + 1)


# The lane-last table of the last request, under exactly its inputs (kappa,
# loads).  Entry m of a row depends only on that row's inputs, the rows
# before it and m, and ``_check_entry`` only on the stored entry, so a
# table, and every row of its engine, can be handed on whatever its earlier
# requests met.  The dict is emptied and refilled in place, never rebound.
_HELD: dict[tuple, LaneLast] = {}


def shared_lane_last(kappa: float, loads: tuple[tuple[float, int], ...]) -> LaneLast:
    """The lane-last table for ``(kappa, loads)``: the held one if these are
    its inputs, else a new one that replaces it.  The new table takes the
    held one's engine R if the loads are the same (another lane load), and
    R's rows before the last-folded station if only that station differs
    (another hub), so a column R has built costs at most one row step."""
    key = (kappa, loads)
    table = _HELD.get(key)
    if table is None:
        rest = None
        for (_, held_loads), held in _HELD.items():
            if held_loads == loads:
                rest = held.rest
            elif held_loads[:-1] == loads[:-1]:
                rest = Convolution(loads[-1:])
                rest._rows[:1] = held.rest._rows[:-1]
        table = LaneLast(kappa, Convolution(loads) if rest is None else rest)
        _HELD.clear()
        _HELD[key] = table
    return table


@dataclass(frozen=True, slots=True)
class ConvolutionTable:
    """Normalization constants G(0..N) for a fixed station set and eta.

    ``mantissa``/``exponent`` hold the extended-range linear values,
    G(m) = mantissa[m] * 2**exponent[m]; ``log_values`` is the independent
    log-domain companion.
    """

    mantissa: tuple[float, ...]
    exponent: tuple[int, ...]
    log_values: tuple[float, ...]

    @property
    def population(self) -> int:
        return len(self.mantissa) - 1

    def value(self, m: int) -> float:
        """Plain float G(m); may overflow to inf for extreme tables."""
        try:
            return math.ldexp(self.mantissa[m], self.exponent[m])
        except OverflowError:
            return math.inf

    def log_value(self, m: int) -> float:
        mant = self.mantissa[m]
        if mant == 0.0:
            return -math.inf
        return math.log(mant) + _LN2 * self.exponent[m]

    def ratio(self, m_num: int, m_den: int) -> float:
        """G(m_num) / G(m_den) without leaving the double range."""
        if self.mantissa[m_den] == 0.0:
            raise NumericalRangeError("ratio denominator is zero")
        q = self.mantissa[m_num] / self.mantissa[m_den]
        return math.ldexp(q, self.exponent[m_num] - self.exponent[m_den])


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


def __getattr__(name: str):
    # the station-list API lives in hubfleet.oracle; perfbench's tracer
    # looks these two names up on this module
    if name in ("convolve_stations", "marginal_distribution"):
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
