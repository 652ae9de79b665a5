"""QUADPACK's QAGS, the routine behind ``scipy.integrate.quad`` on a finite
interval, for many integrals at once.

Each integral runs as its own generator, a transcription of ``dqagse``
with ``dqpsrt`` and the epsilon algorithm ``dqelg`` (Piessens, de
Doncker-Kapenga, Ueberhuber and Kahaner, *QUADPACK*, Springer 1983).  The
generators run in lockstep: each round's panels, from every integral
still open, go through the 21-point Gauss-Kronrod rule ``dqk21`` in one
vectorised call of the integrand.  Every value and error estimate equals
``scipy.integrate.quad``'s bit for bit, given an integrand whose values
do not depend on how its points are batched.  That takes three choices:

* the rule's Kronrod, Gauss and absolute sums are accumulated in
  QUADPACK's order (centre, then the Gauss nodes, then the others) by
  ``np.cumsum`` along the node axis, which adds left to right; ``np.sum``
  promises no order;
* ``(200 * err / resasc) ** 1.5`` is a Python float power, which is
  libm's ``pow``; numpy's own power rounds some points differently;
* the adaptive bookkeeping is plain Python float arithmetic, in
  QUADPACK's order.
"""

from __future__ import annotations

import sys
import warnings

import numpy as np

EPMACH = sys.float_info.epsilon  # d1mach(4)
UFLOW = sys.float_info.min  # d1mach(1)
OFLOW = sys.float_info.max  # d1mach(2)

# dqk21's abscissae and weights, each the double nearest QUADPACK's 33-digit
# value; _K orders the ten node pairs as its Kronrod sum takes them: the
# Gauss nodes (odd positions), then the others
_XGK = np.array([
    0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
    0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
    0.2943928627014602, 0.14887433898163122,
])
_WGK = np.array([
    0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
    0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
    0.14277593857706009, 0.14773910490133849,
    0.1494455540029169,  # the centre's
])
_WG = np.array([
    0.06667134430868814, 0.1494513491505806, 0.21908636251598204, 0.26926671930999635,
    0.29552422471475287,
])
_K = [1, 3, 5, 7, 9, 0, 2, 4, 6, 8]
_XGK_K = _XGK[_K]
_WGK_K = np.concatenate((_WGK[10:], _WGK[_K]))  # per column of [centre, pairs in _K order]
_RESASC = np.argsort(_K)  # the pairs back in natural order, as dqk21's resasc sum takes them
_WGK_RESASC = _WGK[[10, *range(10)]]

# Integrals per call of dqk21 (each asks for one or two panels).  A call's
# arrays then stay below 64 KiB, the size from which glibc's free may trim
# the heap's top, so a large batch does not fault its pages in again and
# again; a larger group saves little.
_GROUP = 64


class IntegrationWarning(UserWarning):
    """An integral ended with one of QUADPACK's error flags."""


# the first sentences of scipy's messages for the flags 1 to 5
_FLAGS = (
    "The maximum number of subdivisions ({limit}) has been achieved.",
    "The occurrence of roundoff error is detected, which prevents the requested "
    "tolerance from being achieved.  The error may be underestimated.",
    "Extremely bad integrand behavior occurs at some points of the integration interval.",
    "The algorithm does not converge.  Roundoff error is detected in the extrapolation table.",
    "The integral is probably divergent, or slowly convergent.",
)


def quad(f, a, b, args=(), epsabs=1.49e-8, epsrel=1.49e-8, limit=50):
    """``(value, error)`` of the integral of ``f`` over [a, b], as
    ``scipy.integrate.quad(f, a, b, args, epsabs=..., epsrel=..., limit=...)``
    gives it for finite limits, for each of many integrals at once.

    ``a``, ``b`` and each of ``args`` broadcast to one shape, one integral
    per element; value and error come in that shape, as floats when it is
    ``()``.  ``f(x, *args)`` takes a ``(panels, 21)`` array of nodes, one
    row per panel of any open integral, and each arg as a ``(panels, 1)``
    column holding its integral's value; it returns the ``(panels, 21)``
    values.  A flag of ``dqagse`` raises one :class:`IntegrationWarning`
    per flag and call, not one per integral as scipy does, with the first
    sentence of scipy's message.
    """
    if limit < 1 or epsabs <= 0.0 and epsrel < max(50.0 * EPMACH, 5e-29):
        raise ValueError("limit must be at least 1, and epsrel above 50 * eps when epsabs <= 0")
    a, b, *args = np.broadcast_arrays(a, b, *args)
    shape = a.shape
    ends = zip(a.ravel().tolist(), b.ravel().tolist())
    integrals = [_dqagse(lo, hi, epsabs, epsrel, limit) for lo, hi in ends]
    with np.errstate(all="ignore"):  # as QUADPACK's own float arithmetic, which never warns
        done = _lockstep(f, integrals, [np.ravel(arg) for arg in args])
    for ier in sorted({ier for _, _, ier in done} - {0}):
        warnings.warn(_FLAGS[ier - 1].format(limit=limit), IntegrationWarning, stacklevel=2)
    value, error = (np.array([row[k] for row in done]).reshape(shape) for k in (0, 1))
    if not shape:
        return float(value), float(error)
    return value, error


def _lockstep(f, integrals, args):
    """Each generator of ``integrals`` run to its return value, the list of
    those; each round, every open one's panels go through :func:`_dqk21`,
    ``_GROUP`` integrals per call, with ``args`` (one value per integral)
    read per panel."""
    done = [None] * len(integrals)
    asks = [(i, gen, next(gen)) for i, gen in enumerate(integrals)]  # with their panels' ends
    while asks:
        later = []
        for start in range(0, len(asks), _GROUP):
            group = asks[start : start + _GROUP]
            counts = [len(ends) // 2 for _, _, ends in group]
            ends = np.array([x for _, _, ends in group for x in ends])
            owner = np.repeat([i for i, _, _ in group], counts)[:, None]
            rows = _dqk21(f, ends[0::2], ends[1::2], [arg[owner] for arg in args])
            k = 0
            for (i, gen, _), count in zip(group, counts):
                try:
                    later.append((i, gen, gen.send(rows[k : k + count])))
                except StopIteration as stop:
                    done[i] = stop.value
                k += count
        asks = later
    return done


def _dqk21(f, a, b, args):
    """``dqk21`` on each panel [a, b] (arrays): per panel, its result,
    absolute error, integral of ``|f|`` and of ``|f - mean|``."""
    centr = 0.5 * (a + b)[:, None]
    hlgth = 0.5 * (b - a)
    absc = hlgth[:, None] * _XGK_K
    fv = np.asarray(f(np.concatenate((centr, centr - absc, centr + absc), axis=1), *args), float)
    fsum = fv[:, 1:11] + fv[:, 11:]
    resg = np.cumsum(fsum[:, :5] * _WG, axis=1)[:, -1]
    terms = np.empty((2, len(a), 11))  # the Kronrod and abs sums' terms
    terms[0, :, 0], terms[0, :, 1:] = fv[:, 0], fsum
    terms[1, :, 0] = np.abs(fv[:, 0])
    np.add(np.abs(fv[:, 1:11]), np.abs(fv[:, 11:]), out=terms[1, :, 1:])
    resk, resabs = np.cumsum(terms * _WGK_K, axis=2)[:, :, -1]
    dev = np.abs(fv - resk[:, None] * 0.5)
    dev = np.concatenate((dev[:, :1], (dev[:, 1:11] + dev[:, 11:])[:, _RESASC]), axis=1)
    resasc = np.cumsum(dev * _WGK_RESASC, axis=1)[:, -1]
    dhlgth = np.abs(hlgth)
    resabs *= dhlgth
    resasc *= dhlgth
    err = np.abs((resk - resg) * hlgth)
    # err = resasc * fmin(1, pow(200 * err / resasc, 1.5)) where both are nonzero
    q = 200.0 * err / resasc
    scaled = (resasc != 0.0) & (err != 0.0)
    small = scaled & (q < 1.0)
    err[scaled] = resasc[scaled]  # times 1.0
    err[small] *= [x**1.5 for x in q[small].tolist()]
    # then at least 50 * eps * resabs, unless resabs is below uflow / (50 * eps)
    floor = EPMACH * 50.0 * resabs
    np.copyto(err, floor, where=(resabs > UFLOW / (50.0 * EPMACH)) & ~(err > floor))
    return list(zip((resk * hlgth).tolist(), err.tolist(), resabs.tolist(), resasc.tolist()))


def _dqagse(a, b, epsabs, epsrel, limit):
    """``dqagse`` on [a, b], either way round, as a generator: it yields the
    panels it needs, as ``(lo, hi)`` or ``(lo1, hi1, lo2, hi2)``, is sent a
    list of their :func:`_dqk21` rows, and returns ``(result, abserr, ier)``.
    Lists are 1-based, as in QUADPACK."""
    ((result, abserr, defabs, resabs),) = yield a, b
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    ier = 0
    if abserr <= 100.0 * EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier
    alist, blist = [0.0, a] + [0.0] * limit, [0.0, b] + [0.0] * limit
    rlist, elist = [0.0, result] + [0.0] * limit, [0.0, abserr] + [0.0] * limit
    iord = [0, 1] + [0] * limit
    rlist2, res3la = [0.0] * 55, [0.0] * 4
    rlist2[1] = result
    errmax, maxerr, area, errsum = abserr, 1, result, abserr
    abserr = OFLOW
    nrmax, nres, numrl2, ktmin = 1, 0, 2, 0
    extrap = noext = False
    iroff1 = iroff2 = iroff3 = ierro = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * EPMACH) * defabs else -1
    small = erlarg = ertest = correc = 0.0
    summed = False  # dqagse's exits to label 115, which returns the sum of the panels
    for last in range(2, limit + 1):
        a1, b1 = alist[maxerr], 0.5 * (alist[maxerr] + blist[maxerr])
        a2, b2 = b1, blist[maxerr]
        erlast = errmax
        (area1, error1, _, defab1), (area2, error2, _, defab2) = yield a1, b1, a2, b2
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr], rlist[last] = area1, area2
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * EPMACH) * (abs(a2) + 1000.0 * UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr], alist[last], blist[last] = a2, a1, b1
            rlist[maxerr], rlist[last] = area2, area1
            elist[maxerr], elist[last] = error2, error1
        else:
            alist[last], blist[maxerr], blist[last] = a2, b1, b2
            elist[maxerr], elist[last] = error1, error2
        maxerr, errmax, nrmax = _dqpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small, erlarg, ertest = abs(b - a) * 0.375, errsum, errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg -= erlast
        if abs(b1 - a1) > small:
            erlarg += erro12
        if not extrap:
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap, nrmax = True, 2
        if not (ierro == 3 or erlarg <= ertest):
            # before extrapolating, bisect a large interval whose error is among the largest
            large = False
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                large = abs(blist[maxerr] - alist[maxerr]) > small
                if large:
                    break
                nrmax += 1
            if large:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _dqelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin, abserr, result, correc = 0, abseps, reseps, erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax, extrap, small, erlarg = 1, False, small * 0.5, errsum
    if not summed and abserr != OFLOW:
        if ier + ierro != 0:
            if ierro == 3:
                abserr += correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                summed = abserr / abs(result) > errsum / abs(area)
            elif abserr > errsum:
                summed = True
            elif area == 0.0:
                return result, abserr, ier - 1 if ier > 2 else ier
        if not summed:
            if not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
                ratio = result / area if area != 0.0 else result * np.inf  # IEEE: 0/0 is nan
                if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
                    ier = 6
            return result, abserr, ier - 1 if ier > 2 else ier
    result = 0.0
    for k in range(1, last + 1):
        result += rlist[k]
    return result, errsum, ier - 1 if ier > 2 else ier


def _dqpsrt(limit, last, maxerr, elist, iord, nrmax):
    """``dqpsrt``: keeps ``iord`` ordering the largest error estimates, in
    place; returns the new ``(maxerr, errmax, nrmax)``."""
    if last <= 2:
        iord[1], iord[2] = 1, 2
    else:
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        jupbn = limit + 3 - last if last > limit // 2 + 2 else last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                for k in range(jbnd, i - 1, -1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _dqelg(n, epstab, res3la, nres):
    """``dqelg``, the epsilon algorithm on ``epstab[1..n]`` (1-based, in
    place, as ``res3la``); returns the new ``(n, result, abserr, nres)``."""
    nres += 1
    abserr = OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = OFLOW
    num = k1 = n
    for i in range(1, newelm + 1):
        k2, k3 = k1 - 1, k1 - 2
        res = epstab[k1 + 2]
        e0, e1, e2 = epstab[k3], epstab[k2], res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 are equal to within machine accuracy: converged
            return n, res, max(err2 + err3, 5.0 * EPMACH * abs(res)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1  # two elements are very close: omit part of the table
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            n = i + i - 1  # irregular behaviour in the table
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if not error > abserr:
            abserr, result = error, res
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = OFLOW
    else:
        abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
        res3la[1], res3la[2], res3la[3] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres
