"""Output checks for one benchmark job.

Every job is checked twice over: against invariants that hold for any
seed, and against a digest of its outputs recorded at the default seed
(reference.json), compared whenever the job's arguments match the recorded
ones.  Comparisons use a relative tolerance of 1e-8: loose enough for the
roundoff that reordering sums causes (about 1e-13 relative), tight enough
that a wrong answer fails.
"""

import cmath
import math

RTOL = 1e-8


def read_csv(path):
    """Columns of an hsnl CSV artifact, skipping the '# key=value' header."""
    with open(path) as handle:
        lines = [ln.rstrip("\n") for ln in handle if not ln.startswith("#")]
    names = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:] if ln]
    return {name: [row[k] for row in rows] for k, name in enumerate(names)}


def _numeric(values):
    try:
        return [float(v) for v in values]
    except ValueError:
        return None


def digest(outputs):
    """Per column: exact text for labels, [L1 norm, weighted sum] else.

    outputs maps an artifact name to its columns.  The weights are fixed,
    so a change in any single entry moves the weighted sum.
    """
    out = {}
    for artifact, columns in sorted(outputs.items()):
        for name, values in columns.items():
            key = "%s:%s" % (artifact, name)
            nums = _numeric(values)
            if nums is None:
                out[key] = "|".join(values)
            else:
                out[key] = [math.fsum(abs(v) for v in nums),
                            math.fsum(v * math.cos(0.7 * k + 0.3)
                                      for k, v in enumerate(nums))]
    return out


def compare(found, ref):
    """Differences between two digests beyond the tolerance."""
    errors = []
    if sorted(found) != sorted(ref):
        return ["artifact columns differ from the reference: %s vs %s"
                % (sorted(found), sorted(ref))]
    scale = {}
    for key, val in ref.items():
        if not isinstance(val, str):
            artifact = key.split(":")[0]
            scale[artifact] = max(scale.get(artifact, 0.0), val[0])
    for key, want in ref.items():
        got = found[key]
        if isinstance(want, str):
            if got != want:
                errors.append("%s differs from the reference" % key)
            continue
        # columns that are roundoff noise around zero take their
        # tolerance from the largest column of the same artifact
        tol = RTOL * max(want[0], 1e-6 * scale[key.split(":")[0]])
        for label, a, b in (("L1", got[0], want[0]),
                            ("weighted sum", got[1], want[1])):
            if not abs(a - b) <= tol:
                errors.append("%s %s is %.17g, reference %.17g"
                              % (key, label, a, b))
    return errors


def finite(outputs):
    errors = []
    for artifact, columns in outputs.items():
        for name, values in columns.items():
            nums = _numeric(values)
            if nums is not None and not all(math.isfinite(v) for v in nums):
                errors.append("%s:%s has non-finite values" % (artifact, name))
    return errors


def _summary_fields(summary):
    fields = {}
    for part in summary.replace(",", " ").split():
        if "=" in part:
            key, value = part.split("=", 1)
            fields[key] = value
    return fields


def semantic(kind, ctx):
    """Invariant named by the job; ctx carries summary, outputs and hsnl."""
    summary = _summary_fields(ctx["summary"])
    outputs = ctx["outputs"]
    if kind == "poincare":
        cps = [float(v) for v in outputs["poincare.csv"]["cp"]]
        if summary.get("verdict") != "pass" or not max(cps) < 0.5:
            return ["poincare verdict %s, largest cp %r"
                    % (summary.get("verdict"), max(cps))]
    elif kind == "ac":
        if summary.get("diagonal_trend") != "decreasing":
            return ["ac diagonal_trend is %s" % summary.get("diagonal_trend")]
    elif kind == "bounds":
        if summary.get("failures") != "0":
            return ["bounds reports failures=%s" % summary.get("failures")]
    elif kind == "symbol_closed_form":
        return _closed_form(outputs["symbol.csv"])
    elif kind == "symbol_d2":
        errors = _imag_part(ctx)
        if ctx["check"].get("adjoint", True):
            errors += _adjoint(ctx)
        return errors
    elif kind == "control":
        residual = float(summary["residual"])
        if not residual <= ctx["check"]["tol"]:
            return ["control residual %r exceeds %r"
                    % (residual, ctx["check"]["tol"])]
    elif kind == "control_library":
        return _control_library(ctx)
    elif kind != "none":
        return ["unknown check %r" % kind]
    return []


def _closed_form(columns):
    # constant unit-ball kernel in d=1: 2 (e^z - 1)/z - 2 with z = 2 pi i xi
    errors = []
    for xi, re, im in zip(*(map(float, columns[c])
                            for c in ("xi_1", "re_1", "im_1"))):
        z = 2j * math.pi * xi
        exact = 2.0 * (cmath.exp(z) - 1.0) / z - 2.0
        if not abs(complex(re, im) - exact) <= 1e-8 * abs(exact):
            errors.append("symbol at xi=%r is off its closed form" % xi)
    return errors


def _adjoint(ctx):
    """lambda^{-nu}(xi) = -conj(lambda^{nu}(xi)) at the smallest |xi| row."""
    import numpy as np
    hsnl = ctx["hsnl"]
    check = ctx["check"]
    cols = ctx["outputs"]["symbol.csv"]
    xis = list(zip(map(float, cols["xi_1"]), map(float, cols["xi_2"])))
    k = min(range(len(xis)), key=lambda i: math.hypot(*xis[i]))
    plus = np.array([complex(float(cols["re_%d" % c][k]),
                             float(cols["im_%d" % c][k])) for c in (1, 2)])
    kern = hsnl.kernels
    kernel = (kern.constant_ball(2) if check["family"] == "constant_ball"
              else kern.riesz_truncated(2, check["s"]))
    minus = hsnl.symbols.symbol(kernel, np.array([-1.0, 0.0]),
                                np.array(xis[k])).value
    defect = float(np.max(np.abs(minus + np.conj(plus))))
    if not defect <= 1e-10 * max(1.0, float(np.max(np.abs(plus)))):
        return ["adjoint identity off by %.3e at xi=%r" % (defect, xis[k])]
    return []


def imag_norms(columns):
    """|Im lambda(xi)| for every row of a d=2 symbol.csv."""
    return [math.hypot(float(a), float(b))
            for a, b in zip(columns["im_1"], columns["im_2"])]


def _imag_part(ctx):
    """Im lambda(xi) is parallel to xi, with a length set by |xi| alone.

    The imaginary part of the integrand, (z/|z|) w(|z|) sin(2 pi xi.z), is
    even in z, so the half-space integral is half the full-space one, which
    turns with xi.  This checks every row at any seed against the lengths
    recorded at seed 0 (same magnitudes, other directions), without asking
    the symbol engine a second time.  Turned to another direction, the
    symbol is integrated on another angle grid; the lengths still agree to
    about 1e-12.
    """
    cols = ctx["outputs"]["symbol.csv"]
    found = imag_norms(cols)
    want = ctx["reference"].get("imag_norms") if ctx["reference"] else None
    errors = []
    for k, norm in enumerate(found):
        xi = (float(cols["xi_1"][k]), float(cols["xi_2"][k]))
        im = (float(cols["im_1"][k]), float(cols["im_2"][k]))
        cross = abs(im[0] * xi[1] - im[1] * xi[0])
        if not cross <= RTOL * norm * math.hypot(*xi):
            errors.append("Im symbol at xi=%r is not parallel to xi" % (xi,))
        if want is not None and not abs(norm - want[k]) <= RTOL * want[k]:
            errors.append("|Im symbol| at |xi|=%.6g is %.17g, recorded %.17g"
                          % (math.hypot(*xi), norm, want[k]))
    return errors


def _control_library(ctx):
    """Projected-gradient residual and the state's Galerkin residual."""
    import numpy as np
    problem, triple = ctx["result"]
    errors = []
    if not triple.residual <= ctx["check"]["tol"]:
        errors.append("solve_optimal residual %r exceeds %r"
                      % (triple.residual, ctx["check"]["tol"]))
    mesh = problem.mesh
    stiff = ctx["hsnl"].fem1d.assemble(problem.kernel, problem.nu,
                                       problem.A, 0.0, mesh).stiffness
    load = 0.5 * mesh.h * (triple.g[:-1] + triple.g[1:])
    residual = np.linalg.norm(stiff @ triple.u - load)
    scale = max(np.linalg.norm(load), 1e-300)
    if not residual <= 1e-10 * scale:
        errors.append("state Galerkin residual %.3e exceeds 1e-10"
                      % (residual / scale))
    return errors
