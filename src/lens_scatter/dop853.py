"""Dormand-Prince 8(5,3) for the four-component geodesic state.

A port of scipy's ``scipy.integrate.DOP853`` solver, run with dense output
and terminal events as scipy's IVP routine runs it, for one short
state vector (Hairer, Norsett & Wanner, *Solving Ordinary Differential
Equations I*, II.5-II.6).  The tableau's nonzero entries are the literals
of ``scipy/integrate/_ivp/dop853_coefficients.py``, bound to one name
each; the initial step, the error norm, the step-size controller and the
event localization are scipy's.

At one ray, scipy's cost is bookkeeping around length-4 arrays.  Here
everything runs on Python floats, and the module imports no numpy.  The
stage, solution, error-estimate and dense-output sums are written out
stage by stage, as in Hairer's ``dop853.f``, over the nonzero entries of
the one table below, term after term; a loop over (index, coefficient)
pairs costs more.  The three extra dense-output stages are computed only
for the steps that are interpolated: the last step, where the stopping
event is localized, and any step a caller samples inside.  The summation
order is fixed, so the rounding, and with it the steps, depend on the
inputs alone.  That matters: on a straight stretch the error estimate is
pure rounding noise and the step sizes follow it, so with ``np.dot`` the
samples followed the CPU's BLAS kernel.  scipy's ``np.dot`` rounds in
another order, so the steps are not scipy's: samples agree with
``solve_ivp``'s within the tolerance, not to the bit.

The right-hand side ``rhs(x, y, theta)`` gives the slopes of the state
``(x, y, theta, tau)`` from its first three components: it reads no time,
and ``tau`` is a quadrature.  So each stage passes ``rhs`` its
``(x, y, theta)`` alone, and ``tau``'s slopes enter only the new state,
the error norm and the interpolant.  A caller whose right-hand side has
known kinks may cut steps short at them (``solve``'s ``cut``).

The event roots come from :func:`brentq`, a port of scipy's Brent solver
that returns its roots to the bit; the rest of the geometry side finds its
roots with it too.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_right

EPS = sys.float_info.epsilon

SAFETY = 0.9
MIN_FACTOR = 0.2   # least factor a rejected step shrinks by
MAX_FACTOR = 10.0  # greatest factor an accepted step grows by
ERROR_EXPONENT = -1.0 / 8.0  # -1 / (error estimator order + 1)

_STAGES = 12

# The tableau's nonzero entries, scipy's literals, named by position:
# ``A5_3`` is ``A[5, 3]``, ``B7`` is ``B[7]`` (row 12 of ``A``), ``E5_7`` is
# ``E5[7]``; the nodes ``C`` go unused.  The sums below take them term after
# term in column order.
A1_0 = 5.26001519587677318785587544488e-2
A2_0, A2_1 = 1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2
A3_0, A3_2 = 2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2
A4_0, A4_2, A4_3 = (
    2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
    9.24834003261792003115737966543e-1)
A5_0, A5_3, A5_4 = (
    3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
    1.25467687566822425016691814123e-1)
A6_0, A6_3, A6_4, A6_5 = (
    3.7109375e-2, 1.70252211019544039314978060272e-1,
    6.02165389804559606850219397283e-2, -1.7578125e-2)
A7_0, A7_3, A7_4, A7_5, A7_6 = (
    3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3)
A8_0, A8_3, A8_4, A8_5, A8_6, A8_7 = (
    6.24110958716075717114429577812e-1, -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1)
A9_0, A9_3, A9_4, A9_5, A9_6, A9_7, A9_8 = (
    4.77662536438264365890433908527e-1, -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2)
A10_0, A10_3, A10_4, A10_5, A10_6, A10_7, A10_8, A10_9 = (
    -9.3714243008598732571704021658e-1, 5.18637242884406370830023853209,
    1.09143734899672957818500254654, -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
    2.49360555267965238987089396762, -3.0467644718982195003823669022)
A11_0, A11_3, A11_4, A11_5, A11_6, A11_7, A11_8, A11_9, A11_10 = (
    2.27331014751653820792359768449, -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
    -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1)
B0, B5, B6, B7, B8, B9, B10, B11 = (
    5.42937341165687622380535766363e-2, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2)
A13_0, A13_6, A13_7, A13_8, A13_9, A13_10, A13_11, A13_12 = (
    5.61675022830479523392909219681e-2, 2.53500210216624811088794765333e-1,
    -2.46239037470802489917441475441e-1, -1.24191423263816360469010140626e-1,
    1.5329179827876569731206322685e-1, 8.20105229563468988491666602057e-3,
    7.56789766054569976138603589584e-3, -8.298e-3)
A14_0, A14_5, A14_6, A14_7, A14_10, A14_11, A14_12, A14_13 = (
    3.18346481635021405060768473261e-2, 2.83009096723667755288322961402e-2,
    5.35419883074385676223797384372e-2, -5.49237485713909884646569340306e-2,
    -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
    -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1)
A15_0, A15_5, A15_6, A15_7, A15_8, A15_12, A15_13, A15_14 = (
    -4.28896301583791923408573538692e-1, -4.69762141536116384314449447206,
    7.68342119606259904184240953878, 4.06898981839711007970213554331,
    3.56727187455281109270669543021e-1, -1.39902416515901462129418009734e-3,
    2.9475147891527723389556272149, -9.15095847217987001081870187138)
# scipy's E3 is B less the third-order weights at stages 0, 8 and 11.
E3_0, E3_5, E3_6, E3_7 = B0 - 0.244094488188976377952755905512, B5, B6, B7
E3_8, E3_9, E3_10 = B8 - 0.733846688281611857341361741547, B9, B10
E3_11 = B11 - 0.220588235294117647058823529412e-1
E5_0, E5_5, E5_6, E5_7, E5_8, E5_9, E5_10, E5_11 = (
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1)
# Dense-output coefficients beyond the first three: each row over stages
# 0 and 5-15.
_D_ROWS = (
    (-0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
     0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
     -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1),
    (0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
     0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
     -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
     -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
     0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
     -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2),
    (0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
     -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
     -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
     -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
     0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2),
    (-0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
     -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
     0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
     0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
     -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
     -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3),
)




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
    """scipy's RMS norm of four floats: the 2-norm over sqrt(4)."""
    a, b, c, d = v
    return math.sqrt(a * a + b * b + c * c + d * d) / 2.0


def _step(rhs, h, y, f, rtol, atol):
    """One trial step of length ``h`` from the state ``y``, where ``f`` is
    its slope: the new state, scipy's DOP853 error norm (the 5th-order
    estimate damped by the 3rd-order one) and, as one flat tuple, the
    stages 0 and 5-11 that the interpolant reads.  Each stage passes
    ``rhs`` its ``(x, y, theta)`` alone; ``tau`` is a quadrature.  Its stage
    12 is the new state's slope, which the error norm does not read, so the
    caller evaluates it only for a step it may keep.

    Written out stage by stage and component by component, as Hairer's
    ``dop853.f`` is: ``kj_i`` is component ``i`` of stage ``j``, and each
    sum runs over the nonzero coefficients of its row, term after term.
    """
    y0, y1, y2, y3 = y
    k0_0, k0_1, k0_2, k0_3 = f
    k1_0, k1_1, k1_2, k1_3 = rhs(
        y0 + (A1_0 * k0_0) * h,
        y1 + (A1_0 * k0_1) * h,
        y2 + (A1_0 * k0_2) * h,
    )
    k2_0, k2_1, k2_2, k2_3 = rhs(
        y0 + (A2_0 * k0_0 + A2_1 * k1_0) * h,
        y1 + (A2_0 * k0_1 + A2_1 * k1_1) * h,
        y2 + (A2_0 * k0_2 + A2_1 * k1_2) * h,
    )
    k3_0, k3_1, k3_2, k3_3 = rhs(
        y0 + (A3_0 * k0_0 + A3_2 * k2_0) * h,
        y1 + (A3_0 * k0_1 + A3_2 * k2_1) * h,
        y2 + (A3_0 * k0_2 + A3_2 * k2_2) * h,
    )
    k4_0, k4_1, k4_2, k4_3 = rhs(
        y0 + (A4_0 * k0_0 + A4_2 * k2_0 + A4_3 * k3_0) * h,
        y1 + (A4_0 * k0_1 + A4_2 * k2_1 + A4_3 * k3_1) * h,
        y2 + (A4_0 * k0_2 + A4_2 * k2_2 + A4_3 * k3_2) * h,
    )
    k5_0, k5_1, k5_2, k5_3 = rhs(
        y0 + (A5_0 * k0_0 + A5_3 * k3_0 + A5_4 * k4_0) * h,
        y1 + (A5_0 * k0_1 + A5_3 * k3_1 + A5_4 * k4_1) * h,
        y2 + (A5_0 * k0_2 + A5_3 * k3_2 + A5_4 * k4_2) * h,
    )
    k6_0, k6_1, k6_2, k6_3 = rhs(
        y0 + (A6_0 * k0_0 + A6_3 * k3_0 + A6_4 * k4_0 + A6_5 * k5_0) * h,
        y1 + (A6_0 * k0_1 + A6_3 * k3_1 + A6_4 * k4_1 + A6_5 * k5_1) * h,
        y2 + (A6_0 * k0_2 + A6_3 * k3_2 + A6_4 * k4_2 + A6_5 * k5_2) * h,
    )
    k7_0, k7_1, k7_2, k7_3 = rhs(
        y0 + (A7_0 * k0_0 + A7_3 * k3_0 + A7_4 * k4_0 + A7_5 * k5_0 + A7_6 * k6_0) * h,
        y1 + (A7_0 * k0_1 + A7_3 * k3_1 + A7_4 * k4_1 + A7_5 * k5_1 + A7_6 * k6_1) * h,
        y2 + (A7_0 * k0_2 + A7_3 * k3_2 + A7_4 * k4_2 + A7_5 * k5_2 + A7_6 * k6_2) * h,
    )
    k8_0, k8_1, k8_2, k8_3 = rhs(
        y0 + (A8_0 * k0_0 + A8_3 * k3_0 + A8_4 * k4_0 + A8_5 * k5_0 + A8_6 * k6_0
             + A8_7 * k7_0) * h,
        y1 + (A8_0 * k0_1 + A8_3 * k3_1 + A8_4 * k4_1 + A8_5 * k5_1 + A8_6 * k6_1
             + A8_7 * k7_1) * h,
        y2 + (A8_0 * k0_2 + A8_3 * k3_2 + A8_4 * k4_2 + A8_5 * k5_2 + A8_6 * k6_2
             + A8_7 * k7_2) * h,
    )
    k9_0, k9_1, k9_2, k9_3 = rhs(
        y0 + (A9_0 * k0_0 + A9_3 * k3_0 + A9_4 * k4_0 + A9_5 * k5_0 + A9_6 * k6_0 + A9_7 * k7_0
             + A9_8 * k8_0) * h,
        y1 + (A9_0 * k0_1 + A9_3 * k3_1 + A9_4 * k4_1 + A9_5 * k5_1 + A9_6 * k6_1 + A9_7 * k7_1
             + A9_8 * k8_1) * h,
        y2 + (A9_0 * k0_2 + A9_3 * k3_2 + A9_4 * k4_2 + A9_5 * k5_2 + A9_6 * k6_2 + A9_7 * k7_2
             + A9_8 * k8_2) * h,
    )
    k10_0, k10_1, k10_2, k10_3 = rhs(
        y0 + (A10_0 * k0_0 + A10_3 * k3_0 + A10_4 * k4_0 + A10_5 * k5_0 + A10_6 * k6_0
             + A10_7 * k7_0 + A10_8 * k8_0 + A10_9 * k9_0) * h,
        y1 + (A10_0 * k0_1 + A10_3 * k3_1 + A10_4 * k4_1 + A10_5 * k5_1 + A10_6 * k6_1
             + A10_7 * k7_1 + A10_8 * k8_1 + A10_9 * k9_1) * h,
        y2 + (A10_0 * k0_2 + A10_3 * k3_2 + A10_4 * k4_2 + A10_5 * k5_2 + A10_6 * k6_2
             + A10_7 * k7_2 + A10_8 * k8_2 + A10_9 * k9_2) * h,
    )
    k11_0, k11_1, k11_2, k11_3 = rhs(
        y0 + (A11_0 * k0_0 + A11_3 * k3_0 + A11_4 * k4_0 + A11_5 * k5_0 + A11_6 * k6_0
             + A11_7 * k7_0 + A11_8 * k8_0 + A11_9 * k9_0 + A11_10 * k10_0) * h,
        y1 + (A11_0 * k0_1 + A11_3 * k3_1 + A11_4 * k4_1 + A11_5 * k5_1 + A11_6 * k6_1
             + A11_7 * k7_1 + A11_8 * k8_1 + A11_9 * k9_1 + A11_10 * k10_1) * h,
        y2 + (A11_0 * k0_2 + A11_3 * k3_2 + A11_4 * k4_2 + A11_5 * k5_2 + A11_6 * k6_2
             + A11_7 * k7_2 + A11_8 * k8_2 + A11_9 * k9_2 + A11_10 * k10_2) * h,
    )
    n0 = y0 + h * (B0 * k0_0 + B5 * k5_0 + B6 * k6_0 + B7 * k7_0 + B8 * k8_0 + B9 * k9_0
                  + B10 * k10_0 + B11 * k11_0)
    n1 = y1 + h * (B0 * k0_1 + B5 * k5_1 + B6 * k6_1 + B7 * k7_1 + B8 * k8_1 + B9 * k9_1
                  + B10 * k10_1 + B11 * k11_1)
    n2 = y2 + h * (B0 * k0_2 + B5 * k5_2 + B6 * k6_2 + B7 * k7_2 + B8 * k8_2 + B9 * k9_2
                  + B10 * k10_2 + B11 * k11_2)
    n3 = y3 + h * (B0 * k0_3 + B5 * k5_3 + B6 * k6_3 + B7 * k7_3 + B8 * k8_3 + B9 * k9_3
                  + B10 * k10_3 + B11 * k11_3)
    s0 = atol + max(abs(y0), abs(n0)) * rtol
    p0 = (E5_0 * k0_0 + E5_5 * k5_0 + E5_6 * k6_0 + E5_7 * k7_0 + E5_8 * k8_0 + E5_9 * k9_0
          + E5_10 * k10_0 + E5_11 * k11_0) / s0
    q0 = (E3_0 * k0_0 + E3_5 * k5_0 + E3_6 * k6_0 + E3_7 * k7_0 + E3_8 * k8_0 + E3_9 * k9_0
          + E3_10 * k10_0 + E3_11 * k11_0) / s0
    s1 = atol + max(abs(y1), abs(n1)) * rtol
    p1 = (E5_0 * k0_1 + E5_5 * k5_1 + E5_6 * k6_1 + E5_7 * k7_1 + E5_8 * k8_1 + E5_9 * k9_1
          + E5_10 * k10_1 + E5_11 * k11_1) / s1
    q1 = (E3_0 * k0_1 + E3_5 * k5_1 + E3_6 * k6_1 + E3_7 * k7_1 + E3_8 * k8_1 + E3_9 * k9_1
          + E3_10 * k10_1 + E3_11 * k11_1) / s1
    s2 = atol + max(abs(y2), abs(n2)) * rtol
    p2 = (E5_0 * k0_2 + E5_5 * k5_2 + E5_6 * k6_2 + E5_7 * k7_2 + E5_8 * k8_2 + E5_9 * k9_2
          + E5_10 * k10_2 + E5_11 * k11_2) / s2
    q2 = (E3_0 * k0_2 + E3_5 * k5_2 + E3_6 * k6_2 + E3_7 * k7_2 + E3_8 * k8_2 + E3_9 * k9_2
          + E3_10 * k10_2 + E3_11 * k11_2) / s2
    s3 = atol + max(abs(y3), abs(n3)) * rtol
    p3 = (E5_0 * k0_3 + E5_5 * k5_3 + E5_6 * k6_3 + E5_7 * k7_3 + E5_8 * k8_3 + E5_9 * k9_3
          + E5_10 * k10_3 + E5_11 * k11_3) / s3
    q3 = (E3_0 * k0_3 + E3_5 * k5_3 + E3_6 * k6_3 + E3_7 * k7_3 + E3_8 * k8_3 + E3_9 * k9_3
          + E3_10 * k10_3 + E3_11 * k11_3) / s3

    err5 = p0 * p0 + p1 * p1 + p2 * p2 + p3 * p3
    err3 = q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3
    if err5 == 0.0 and err3 == 0.0:
        error_norm = 0.0
    else:
        error_norm = abs(h) * err5 / math.sqrt((err5 + 0.01 * err3) * 4)
    stages = (k0_0, k0_1, k0_2, k0_3, k5_0, k5_1, k5_2, k5_3, k6_0, k6_1, k6_2, k6_3,
              k7_0, k7_1, k7_2, k7_3, k8_0, k8_1, k8_2, k8_3, k9_0, k9_1, k9_2, k9_3,
              k10_0, k10_1, k10_2, k10_3, k11_0, k11_1, k11_2, k11_3)
    return (n0, n1, n2, n3), error_norm, stages


class DenseSolution:
    """Accepted steps of one :func:`solve` call and their dense output.

    ``ts`` holds the start of every accepted step and the stopping time,
    ``ys`` the states there: the exact step states, and the last step's
    interpolant at the stop.  ``event`` is the index of the event that
    stopped the run.  ``nfev`` counts right-hand side calls: two for the
    first step size, 12 per accepted trial step, 11 per rejected one (its
    end slope is never read) and 3 per interpolated step; each passes
    ``rhs`` a stage's ``(x, y, theta)`` alone.  ``steps`` and ``rejected``
    count accepted and rejected steps.
    """

    def __init__(self, rhs):
        self._rhs = rhs
        self._steps = []  # (t, h, y, y_new, stages 0 and 5-12 as one array) per step
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
            k0, k5, k6, k7, k8, k9, k10, k11, k12 = (K[j:j + 4] for j in range(0, 36, 4))
            rhs = self._rhs
            k13 = rhs(*[v + (A13_0 * p0 + A13_6 * p6 + A13_7 * p7 + A13_8 * p8 + A13_9 * p9
                             + A13_10 * p10 + A13_11 * p11 + A13_12 * p12) * h
                        for v, p0, p6, p7, p8, p9, p10, p11, p12
                        in zip(y[:3], k0, k6, k7, k8, k9, k10, k11, k12)])
            k14 = rhs(*[v + (A14_0 * p0 + A14_5 * p5 + A14_6 * p6 + A14_7 * p7 + A14_10 * p10
                             + A14_11 * p11 + A14_12 * p12 + A14_13 * p13) * h
                        for v, p0, p5, p6, p7, p10, p11, p12, p13
                        in zip(y[:3], k0, k5, k6, k7, k10, k11, k12, k13)])
            k15 = rhs(*[v + (A15_0 * p0 + A15_5 * p5 + A15_6 * p6 + A15_7 * p7 + A15_8 * p8
                             + A15_12 * p12 + A15_13 * p13 + A15_14 * p14) * h
                        for v, p0, p5, p6, p7, p8, p12, p13, p14
                        in zip(y[:3], k0, k5, k6, k7, k8, k12, k13, k14)])
            self.nfev += 3
            stages = (k0, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15)
            f3, f4, f5, f6 = (
                [h * (d0 * p0 + d5 * p5 + d6 * p6 + d7 * p7 + d8 * p8 + d9 * p9 + d10 * p10
                      + d11 * p11 + d12 * p12 + d13 * p13 + d14 * p14 + d15 * p15)
                 for p0, p5, p6, p7, p8, p9, p10, p11, p12, p13, p14, p15 in zip(*stages)]
                for d0, d5, d6, d7, d8, d9, d10, d11, d12, d13, d14, d15 in _D_ROWS)
            rows = []
            for v, w, p0, p12, *high in zip(y, y_new, k0, k12, f3, f4, f5, f6):
                dy = w - v
                rows.append((*reversed(high), 2 * dy - h * (p12 + p0), h * p0 - dy, dy))
            self._dense[i] = (t, h, rows, y)
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

    def __call__(self, ts) -> list:
        """States at the times ``ts`` as four float lists, one per component."""
        starts = [step[0] for step in self._steps]
        last = len(starts) - 1
        cols = [self._interpolate(min(max(bisect_right(starts, t) - 1, 0), last), t)
                for t in ts]
        return [[col[k] for col in cols] for k in range(4)]


def _initial_step(rhs, y, f, rtol, atol) -> float:
    """scipy's ``select_initial_step`` from ``t = 0`` over an unbounded span;
    raises ``RuntimeError`` when an overflowing ``f`` leaves no positive step."""
    scale = [atol + abs(v) * rtol for v in y]
    d0 = _rms([v / s for v, s in zip(y, scale)])
    d1 = _rms([p / s for p, s in zip(f, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if not h0 > 0.0:
        raise RuntimeError(f"geodesic integration failed: initial step size {h0} is not positive")
    f1 = rhs(*[v + h0 * p for v, p in zip(y[:3], f)])
    d2 = _rms([(q - p) / s for q, p, s in zip(f1, f, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1)


def solve(rhs, y0, rtol: float, atol: float, events, cut=None) -> DenseSolution:
    """Integrate the state ``(x, y, theta, tau)`` from ``t = 0`` until an
    event fires.

    ``y0`` has four components.  ``rhs(x, y, theta)`` returns the four
    slopes as floats; it reads no time, and ``tau`` is a quadrature, so no
    slope reads it (see the module docstring).  Every event ``g(t, y)`` is
    terminal and negative at the start; the run stops at the earliest root
    of the events that are non-negative at the end of a step, found by
    ``brentq`` on that step's interpolant with ``xtol = rtol = 4 eps``, as
    scipy's IVP routine finds it.
    Raises ``RuntimeError`` when the step size falls below its floor.

    ``cut(h, y, y_new)``, if given, sees every trial step before
    its error norm is used, which means nothing on a step across a point
    where ``rhs`` is not smooth.  It returns ``None``, or a shorter step that
    ends just past the first such point; the step is then redone at that
    length and counted as rejected, and the next one resumes at the length
    that was cut.  Without ``cut`` the steps are scipy's controller's.
    """
    sol = DenseSolution(rhs)
    t = 0.0
    y = tuple(float(v) for v in y0)
    f = rhs(*y[:3])
    h_abs = _initial_step(rhs, y, f, rtol, atol)
    sol.nfev = 2
    while True:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        resume = None
        while True:
            if h_abs < min_step:
                raise RuntimeError("geodesic integration failed: Required step size "
                                   "is less than spacing between numbers.")
            t_new = t + h_abs
            h = t_new - t
            h_abs = abs(h)
            y_new, error_norm, stages = _step(rhs, h, y, f, rtol, atol)
            sol.nfev += _STAGES - 1
            h_cut = None if cut is None else cut(h, y, y_new)
            if h_cut is not None:
                if resume is None:
                    resume = h_abs
                h_abs = h_cut
            elif error_norm < 1:
                f_new = rhs(*y_new[:3])
                sol.nfev += 1
                factor = (MAX_FACTOR if error_norm == 0
                          else min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT))
                if rejected:
                    factor = min(1, factor)
                h_abs = resume if resume is not None else h_abs * factor
                break
            else:
                h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
            sol.rejected += 1

        sol.steps += 1
        sol._steps.append((t, h, y, y_new, array("d", (*stages, *f_new))))
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
