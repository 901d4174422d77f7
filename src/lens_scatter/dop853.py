"""Dormand-Prince 8(5,3) for the four-component geodesic state.

A port of scipy's ``scipy.integrate.DOP853`` solver, run with dense output
and terminal events as scipy's IVP routine runs it, for one short
state vector (Hairer, Norsett & Wanner, *Solving Ordinary Differential
Equations I*, II.5-II.6).  The tableau is copied from
``scipy/integrate/_ivp/dop853_coefficients.py``; the initial step, the
error norm, the step-size controller and the event localization are
scipy's, so the port takes scipy's steps and gives its samples.

At one ray, scipy's cost is bookkeeping around length-4 arrays.  Here the
controller, the right-hand side, the events and the interpolant run on
Python floats, and the three extra dense-output stages are computed only
for the steps that are interpolated: the last step, where the stopping
event is localized, and any step a caller samples inside.  The stage and
error combinations stay ``np.dot`` calls of the shapes scipy uses: the
error estimate cancels six or more digits, and with any other summation
order the step sizes drift by about 1e-6 relative, which moved samples of
a 128-ray bump fan by up to 5e-5.  Rounding as scipy's calls do keeps the
steps, and so the samples, identical.

A caller whose right-hand side has known kinks may cut steps short at
them (``solve``'s ``cut``); only then do the steps leave scipy's.

The event roots come from :func:`brentq`, a port of scipy's Brent solver
that returns its roots to the bit; the rest of the geometry side finds its
roots with it too.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

EPS = float(np.finfo(float).eps)

SAFETY = 0.9
MIN_FACTOR = 0.2   # least factor a rejected step shrinks by
MAX_FACTOR = 10.0  # greatest factor an accepted step grows by
ERROR_EXPONENT = -1.0 / 8.0  # -1 / (error estimator order + 1)

_STAGES = 12
_STAGES_EXTENDED = 16

_C = np.array([0.0,
               0.526001519587677318785587544488e-01,
               0.789002279381515978178381316732e-01,
               0.118350341907227396726757197510,
               0.281649658092772603273242802490,
               0.333333333333333333333333333333,
               0.25,
               0.307692307692307692307692307692,
               0.651282051282051282051282051282,
               0.6,
               0.857142857142857142857142857142,
               1.0,
               1.0,
               0.1,
               0.2,
               0.777777777777777777777777777778])

_A = np.zeros((_STAGES_EXTENDED, _STAGES_EXTENDED))
_A[1, 0] = 5.26001519587677318785587544488e-2

_A[2, 0] = 1.97250569845378994544595329183e-2
_A[2, 1] = 5.91751709536136983633785987549e-2

_A[3, 0] = 2.95875854768068491816892993775e-2
_A[3, 2] = 8.87627564304205475450678981324e-2

_A[4, 0] = 2.41365134159266685502369798665e-1
_A[4, 2] = -8.84549479328286085344864962717e-1
_A[4, 3] = 9.24834003261792003115737966543e-1

_A[5, 0] = 3.7037037037037037037037037037e-2
_A[5, 3] = 1.70828608729473871279604482173e-1
_A[5, 4] = 1.25467687566822425016691814123e-1

_A[6, 0] = 3.7109375e-2
_A[6, 3] = 1.70252211019544039314978060272e-1
_A[6, 4] = 6.02165389804559606850219397283e-2
_A[6, 5] = -1.7578125e-2

_A[7, 0] = 3.70920001185047927108779319836e-2
_A[7, 3] = 1.70383925712239993810214054705e-1
_A[7, 4] = 1.07262030446373284651809199168e-1
_A[7, 5] = -1.53194377486244017527936158236e-2
_A[7, 6] = 8.27378916381402288758473766002e-3

_A[8, 0] = 6.24110958716075717114429577812e-1
_A[8, 3] = -3.36089262944694129406857109825
_A[8, 4] = -8.68219346841726006818189891453e-1
_A[8, 5] = 2.75920996994467083049415600797e1
_A[8, 6] = 2.01540675504778934086186788979e1
_A[8, 7] = -4.34898841810699588477366255144e1

_A[9, 0] = 4.77662536438264365890433908527e-1
_A[9, 3] = -2.48811461997166764192642586468
_A[9, 4] = -5.90290826836842996371446475743e-1
_A[9, 5] = 2.12300514481811942347288949897e1
_A[9, 6] = 1.52792336328824235832596922938e1
_A[9, 7] = -3.32882109689848629194453265587e1
_A[9, 8] = -2.03312017085086261358222928593e-2

_A[10, 0] = -9.3714243008598732571704021658e-1
_A[10, 3] = 5.18637242884406370830023853209
_A[10, 4] = 1.09143734899672957818500254654
_A[10, 5] = -8.14978701074692612513997267357
_A[10, 6] = -1.85200656599969598641566180701e1
_A[10, 7] = 2.27394870993505042818970056734e1
_A[10, 8] = 2.49360555267965238987089396762
_A[10, 9] = -3.0467644718982195003823669022

_A[11, 0] = 2.27331014751653820792359768449
_A[11, 3] = -1.05344954667372501984066689879e1
_A[11, 4] = -2.00087205822486249909675718444
_A[11, 5] = -1.79589318631187989172765950534e1
_A[11, 6] = 2.79488845294199600508499808837e1
_A[11, 7] = -2.85899827713502369474065508674
_A[11, 8] = -8.87285693353062954433549289258
_A[11, 9] = 1.23605671757943030647266201528e1
_A[11, 10] = 6.43392746015763530355970484046e-1

_A[12, 0] = 5.42937341165687622380535766363e-2
_A[12, 5] = 4.45031289275240888144113950566
_A[12, 6] = 1.89151789931450038304281599044
_A[12, 7] = -5.8012039600105847814672114227
_A[12, 8] = 3.1116436695781989440891606237e-1
_A[12, 9] = -1.52160949662516078556178806805e-1
_A[12, 10] = 2.01365400804030348374776537501e-1
_A[12, 11] = 4.47106157277725905176885569043e-2

_A[13, 0] = 5.61675022830479523392909219681e-2
_A[13, 6] = 2.53500210216624811088794765333e-1
_A[13, 7] = -2.46239037470802489917441475441e-1
_A[13, 8] = -1.24191423263816360469010140626e-1
_A[13, 9] = 1.5329179827876569731206322685e-1
_A[13, 10] = 8.20105229563468988491666602057e-3
_A[13, 11] = 7.56789766054569976138603589584e-3
_A[13, 12] = -8.298e-3

_A[14, 0] = 3.18346481635021405060768473261e-2
_A[14, 5] = 2.83009096723667755288322961402e-2
_A[14, 6] = 5.35419883074385676223797384372e-2
_A[14, 7] = -5.49237485713909884646569340306e-2
_A[14, 10] = -1.08347328697249322858509316994e-4
_A[14, 11] = 3.82571090835658412954920192323e-4
_A[14, 12] = -3.40465008687404560802977114492e-4
_A[14, 13] = 1.41312443674632500278074618366e-1

_A[15, 0] = -4.28896301583791923408573538692e-1
_A[15, 5] = -4.69762141536116384314449447206
_A[15, 6] = 7.68342119606259904184240953878
_A[15, 7] = 4.06898981839711007970213554331
_A[15, 8] = 3.56727187455281109270669543021e-1
_A[15, 12] = -1.39902416515901462129418009734e-3
_A[15, 13] = 2.9475147891527723389556272149
_A[15, 14] = -9.15095847217987001081870187138


_B = _A[_STAGES, :_STAGES]

_E3 = np.zeros(_STAGES + 1)
_E3[:-1] = _B.copy()
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1

_E5 = np.zeros(_STAGES + 1)
_E5[0] = 0.1312004499419488073250102996e-1
_E5[5] = -0.1225156446376204440720569753e+1
_E5[6] = -0.4957589496572501915214079952
_E5[7] = 0.1664377182454986536961530415e+1
_E5[8] = -0.3503288487499736816886487290
_E5[9] = 0.3341791187130174790297318841
_E5[10] = 0.8192320648511571246570742613e-1
_E5[11] = -0.2235530786388629525884427845e-1

# Dense-output coefficients beyond the first three, over all 16 stages.
_D = np.zeros((4, _STAGES_EXTENDED))
_D[0, 0] = -0.84289382761090128651353491142e+1
_D[0, 5] = 0.56671495351937776962531783590
_D[0, 6] = -0.30689499459498916912797304727e+1
_D[0, 7] = 0.23846676565120698287728149680e+1
_D[0, 8] = 0.21170345824450282767155149946e+1
_D[0, 9] = -0.87139158377797299206789907490
_D[0, 10] = 0.22404374302607882758541771650e+1
_D[0, 11] = 0.63157877876946881815570249290
_D[0, 12] = -0.88990336451333310820698117400e-1
_D[0, 13] = 0.18148505520854727256656404962e+2
_D[0, 14] = -0.91946323924783554000451984436e+1
_D[0, 15] = -0.44360363875948939664310572000e+1

_D[1, 0] = 0.10427508642579134603413151009e+2
_D[1, 5] = 0.24228349177525818288430175319e+3
_D[1, 6] = 0.16520045171727028198505394887e+3
_D[1, 7] = -0.37454675472269020279518312152e+3
_D[1, 8] = -0.22113666853125306036270938578e+2
_D[1, 9] = 0.77334326684722638389603898808e+1
_D[1, 10] = -0.30674084731089398182061213626e+2
_D[1, 11] = -0.93321305264302278729567221706e+1
_D[1, 12] = 0.15697238121770843886131091075e+2
_D[1, 13] = -0.31139403219565177677282850411e+2
_D[1, 14] = -0.93529243588444783865713862664e+1
_D[1, 15] = 0.35816841486394083752465898540e+2

_D[2, 0] = 0.19985053242002433820987653617e+2
_D[2, 5] = -0.38703730874935176555105901742e+3
_D[2, 6] = -0.18917813819516756882830838328e+3
_D[2, 7] = 0.52780815920542364900561016686e+3
_D[2, 8] = -0.11573902539959630126141871134e+2
_D[2, 9] = 0.68812326946963000169666922661e+1
_D[2, 10] = -0.10006050966910838403183860980e+1
_D[2, 11] = 0.77771377980534432092869265740
_D[2, 12] = -0.27782057523535084065932004339e+1
_D[2, 13] = -0.60196695231264120758267380846e+2
_D[2, 14] = 0.84320405506677161018159903784e+2
_D[2, 15] = 0.11992291136182789328035130030e+2

_D[3, 0] = -0.25693933462703749003312586129e+2
_D[3, 5] = -0.15418974869023643374053993627e+3
_D[3, 6] = -0.23152937917604549567536039109e+3
_D[3, 7] = 0.35763911791061412378285349910e+3
_D[3, 8] = 0.93405324183624310003907691704e+2
_D[3, 9] = -0.37458323136451633156875139351e+2
_D[3, 10] = 0.10409964950896230045147246184e+3
_D[3, 11] = 0.29840293426660503123344363579e+2
_D[3, 12] = -0.43533456590011143754432175058e+2
_D[3, 13] = 0.96324553959188282948394950600e+2
_D[3, 14] = -0.39177261675615439165231486172e+2
_D[3, 15] = -0.14972683625798562581422125276e+3

# Stage s combines the first s stages with A[s, :s], as scipy slices them.
_MAIN_ROWS = tuple((float(_C[s]), _A[s, :s]) for s in range(1, _STAGES))
_EXTRA_ROWS = tuple((float(_C[s]), _A[s, :s]) for s in range(_STAGES + 1, _STAGES_EXTENDED))


def _divide(a: float, b: float) -> float:
    """``a / b`` as C divides: by zero it gives an infinity or NaN."""
    if b != 0.0:
        return a / b
    if a == 0.0 or math.isnan(a):
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def brentq(f, xa: float, xb: float, xtol: float = 2e-12, rtol: float = 4 * EPS,
           maxiter: int = 100) -> float:
    """Root of ``f`` in the sign-changing bracket ``[xa, xb]`` by Brent's method.

    A line-for-line port of scipy's ``brentq.c`` behind
    ``scipy.optimize.brentq``, with its defaults: the same iterates in the
    same order, so the same root to the bit.  It stops when the bracket's
    half-width falls below ``(xtol + rtol |x|) / 2``.  Raises ``ValueError``
    when ``f(xa)`` and ``f(xb)`` have one sign or ``f`` returns NaN, and
    ``RuntimeError`` after ``maxiter`` iterations without convergence.
    """
    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = _divide(fpre - fcur, xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = _divide(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur!r}")


def _rms(v) -> float:
    """scipy's RMS norm ``np.linalg.norm(v) / sqrt(v.size)``."""
    return math.sqrt(v.dot(v)) / 2.0


class DenseSolution:
    """Accepted steps of one :func:`solve` call and their dense output.

    ``ts`` holds the start of every accepted step and the stopping time,
    ``ys`` the states there: the exact step states, and the last step's
    interpolant at the stop.  ``event`` is the index of the event that
    stopped the run.  ``nfev`` counts right-hand side calls,
    including those interpolation adds; ``steps`` and ``rejected`` count
    accepted and rejected steps.
    """

    def __init__(self, rhs):
        self._rhs = rhs
        self._steps = []  # (t, h, y, y_new, stages) per accepted step
        self._dense = {}
        self.ts = []
        self.ys = []
        self.event = None
        self.nfev = 0
        self.steps = 0
        self.rejected = 0

    def _coefficients(self, i):
        """Coefficients of step ``i``'s 7th-order interpolant, computing its
        three extra stages on first use."""
        if i not in self._dense:
            t, h, y, y_new, K = self._steps[i]
            y, y_new = np.array(y), np.array(y_new)
            for s, (c, a) in enumerate(_EXTRA_ROWS, start=_STAGES + 1):
                K[s] = self._rhs(t + c * h, (y + K[:s].T.dot(a) * h).tolist())
            self.nfev += len(_EXTRA_ROWS)
            F = np.empty((7, 4))
            f_old, f_new = K[0], K[_STAGES]
            delta_y = y_new - y
            F[0] = delta_y
            F[1] = h * f_old - delta_y
            F[2] = 2 * delta_y - h * (f_new + f_old)
            F[3:] = h * np.dot(_D, K)
            self._dense[i] = (t, h, F[::-1].T.tolist(), y.tolist())
        return self._dense[i]

    def _interpolate(self, i, t):
        """State at ``t`` from step ``i``'s interpolant, as a float list."""
        t_old, h, rows, y_old = self._coefficients(i)
        x = (t - t_old) / h
        x1 = 1 - x
        out = []
        for (f6, f5, f4, f3, f2, f1, f0), y in zip(rows, y_old):
            v = ((((((f6 * x + f5) * x1 + f4) * x + f3) * x1 + f2) * x + f1) * x1 + f0) * x
            out.append(v + y)
        return out

    def __call__(self, ts) -> np.ndarray:
        """States at the times ``ts`` as a ``(4, len(ts))`` array."""
        starts = [step[0] for step in self._steps]
        last = len(starts) - 1
        cols = [self._interpolate(min(max(bisect_right(starts, t) - 1, 0), last), t)
                for t in ts]
        return np.array(cols, dtype=float).reshape(-1, 4).T


def _initial_step(rhs, y, f, rtol, atol) -> float:
    """scipy's ``select_initial_step`` from ``t = 0`` over an unbounded span."""
    scale = atol + np.abs(y) * rtol
    d0 = _rms(y / scale)
    d1 = _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    f1 = np.array(rhs(h0, (y + h0 * f).tolist()))
    d2 = _rms((f1 - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1)


def _error_norm(KE, h, scale) -> float:
    """scipy's DOP853 error norm of a step from the stage columns ``KE``
    (``K[:13].T``): the 5th-order estimate damped by the 3rd-order one."""
    err5 = KE.dot(_E5) / scale
    err3 = KE.dot(_E3) / scale
    err5_norm_2 = math.sqrt(err5.dot(err5)) ** 2
    err3_norm_2 = math.sqrt(err3.dot(err3)) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return abs(h) * err5_norm_2 / math.sqrt(denom * 4)


def solve(rhs, y0, rtol: float, atol: float, events, cut=None) -> DenseSolution:
    """Integrate ``y' = rhs(t, y)`` from ``t = 0`` until an event fires.

    ``y0`` has four components; ``rhs`` takes a float sequence and returns
    four floats.  Every event ``g(t, y)`` is terminal and negative at the
    start; the run stops at the earliest root of the events that are
    non-negative at the end of a step, found by ``brentq`` on that step's
    interpolant with ``xtol = rtol = 4 eps``, as scipy's IVP routine finds it.
    Raises ``RuntimeError`` when the step size falls below its floor.

    ``cut(h, y, y_new, f, f_new)``, if given, sees every trial step before
    its error test, which means nothing on a step across a point where
    ``rhs`` is not smooth.  It returns ``None``, or a shorter step that
    ends just past the first such point; the step is then redone at that
    length and counted as rejected, and the next one resumes at the length
    that was cut.  Without ``cut`` the steps are scipy's.
    """
    sol = DenseSolution(rhs)
    t = 0.0
    y = [float(v) for v in y0]
    f = rhs(t, y)
    h_abs = _initial_step(rhs, np.array(y), np.array(f), rtol, atol)
    sol.nfev = 2
    # One stage buffer; the column views are the ones scipy's slices make.
    K = np.empty((_STAGES_EXTENDED, 4))
    main = tuple((s, c, K[:s].T, a) for s, (c, a) in enumerate(_MAIN_ROWS, start=1))
    KB, KE = K[:_STAGES].T, K[:_STAGES + 1].T
    while True:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        resume = None
        y0, y1, y2, y3 = y
        while True:
            if h_abs < min_step:
                raise RuntimeError("geodesic integration failed: Required step size "
                                   "is less than spacing between numbers.")
            t_new = t + h_abs
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for s, c, Ks, a in main:
                d0, d1, d2, d3 = Ks.dot(a).tolist()
                K[s] = rhs(t + c * h, (y0 + d0 * h, y1 + d1 * h, y2 + d2 * h, y3 + d3 * h))
            b0, b1, b2, b3 = KB.dot(_B).tolist()
            y_new = (y0 + h * b0, y1 + h * b1, y2 + h * b2, y3 + h * b3)
            f_new = rhs(t + h, y_new)
            K[_STAGES] = f_new
            sol.nfev += _STAGES
            h_cut = None if cut is None else cut(h, y, y_new, f, f_new)
            if h_cut is not None:
                if resume is None:
                    resume = h_abs
                h_abs = h_cut
            else:
                scale = np.array([atol + max(abs(a), abs(b)) * rtol for a, b in zip(y, y_new)])
                error_norm = _error_norm(KE, h, scale)
                if error_norm < 1:
                    factor = (MAX_FACTOR if error_norm == 0
                              else min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT))
                    if rejected:
                        factor = min(1, factor)
                    h_abs = resume if resume is not None else h_abs * factor
                    break
                h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
            sol.rejected += 1

        sol.steps += 1
        sol._steps.append((t, h, y, y_new, K.copy()))
        sol.ts.append(t)
        sol.ys.append(y)
        fired = [k for k, g in enumerate(events) if g(t_new, y_new) >= 0.0]
        if fired:
            i = len(sol._steps) - 1
            t_stop, sol.event = min(
                (brentq(lambda s, g=events[k]: g(s, sol._interpolate(i, s)), t, t_new,
                        xtol=4 * EPS, rtol=4 * EPS), k)
                for k in fired)
            sol.ts.append(t_stop)
            sol.ys.append(sol._interpolate(i, t_stop))
            return sol
        t, y, f = t_new, y_new, f_new
