"""Independent reference for judging probchan outputs.

Nothing here imports probchan. Every formula is written from the package's
documented conventions (README and module docstrings), not from its code:

* row-major vec, so a channel F has the dynamical (Choi) matrix
  D[(k, i), (l, j)] = F(E_ij)[k, l];
* half of a trace-2 dynamical matrix is a ququart density matrix, read as
  fifteen probabilities: p1..p3 = 1 - rho_kk for k = 1, 2, 3, then one
  (0.5 + Re rho_rc, 0.5 - Im rho_rc) pair per upper-triangle entry in
  row-major order;
* a qubit density matrix is [[p1, (p2 - 1/2) - i(p3 - 1/2)], [c.c., 1 - p1]];
* under a Hamiltonian h the dynamical matrix evolves in closed form as
  D(t) = W D0 W^dagger with W = exp(-i h t) kron I2;
* README exit codes: 0 success, 1 malformed input, 2 out-of-domain values,
  exactly one `error:` line on failure and never a traceback.
"""

import json

import numpy as np

UPPER_PAIRS = [(r, c) for r in range(4) for c in range(r + 1, 4)]
VERDICT_TOL = 1e-9
TIGHT = 1e-12


# ---------------------------------------------------------------------------
# states and channels


def qubit_rho(p):
    off = (p[1] - 0.5) - 1j * (p[2] - 0.5)
    return np.array([[p[0], off], [np.conj(off), 1.0 - p[0]]])


def qubit_probs(rho):
    return np.array([rho[0, 0].real, 0.5 + rho[1, 0].real, 0.5 + rho[1, 0].imag])


def bloch_ok(p):
    return float(np.sum((np.asarray(p) - 0.5) ** 2)) <= 0.25 + 1e-12


def ququart_probs(rho):
    """Fifteen probabilities of a 4 x 4 matrix; works on stacks (..., 4, 4)."""
    rho = np.asarray(rho)
    cols = [1.0 - rho[..., k, k].real for k in (1, 2, 3)]
    for r, c in UPPER_PAIRS:
        cols.append(0.5 + rho[..., r, c].real)
        cols.append(0.5 - rho[..., r, c].imag)
    return np.stack(cols, axis=-1)


def ququart_rho(p):
    rho = np.zeros((4, 4), dtype=complex)
    for k in (1, 2, 3):
        rho[k, k] = 1.0 - p[k - 1]
    rho[0, 0] = 1.0 - rho[1, 1] - rho[2, 2] - rho[3, 3]
    for n, (r, c) in enumerate(UPPER_PAIRS):
        z = (p[3 + 2 * n] - 0.5) - 1j * (p[4 + 2 * n] - 0.5)
        rho[r, c] = z
        rho[c, r] = np.conj(z)
    return rho


def channel_probs(choi):
    return ququart_probs(np.asarray(choi) / 2.0)


def choi_of_map(f):
    """Dynamical matrix of a linear map on 2 x 2 matrices, from its definition."""
    d = np.zeros((2, 2, 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            d[:, i, :, j] = f(e)
    return d.reshape(4, 4)


def kraus_map(ops):
    return lambda x: sum(a @ x @ a.conj().T for a in ops)


def transpose_map(a):
    return lambda x: a @ x.T @ a.conj().T


def cptp_report(choi, tol=VERDICT_TOL):
    d = np.asarray(choi)
    herm = float(np.max(np.abs(d - d.conj().T)))
    partial = np.einsum("aiaj->ij", d.reshape(2, 2, 2, 2))
    tp = float(np.max(np.abs(partial - np.eye(2))))
    min_eig = float(np.linalg.eigvalsh((d + d.conj().T) / 2.0)[0])
    cp_ok = herm <= tol and min_eig >= -tol
    tp_ok = tp <= tol
    verdict = {(True, True): "CPTP", (True, False): "CP-not-TP", (False, True): "TP-not-CP"}.get(
        (cp_ok, tp_ok), "neither"
    )
    return {
        "hermiticity_defect": herm,
        "trace_value": float(d.trace().real),
        "tp_defect": tp,
        "min_eigenvalue": min_eig,
        "verdict": verdict,
    }


def report_mismatch(got, want):
    """None when a CPTP report (dict or object with the same fields) matches the reference."""
    get = got.get if isinstance(got, dict) else lambda k: getattr(got, k, None)
    if get("verdict") != want["verdict"]:
        return f"wrong verdict {get('verdict')!r}, want {want['verdict']!r}"
    for key in ("hermiticity_defect", "trace_value", "tp_defect", "min_eigenvalue"):
        value = get(key)
        if not isinstance(value, (int, float)) or abs(value - want[key]) > 1e-9:
            return f"{key} {value!r} differs from reference {want[key]!r}"
    return None


def max_dev(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return np.inf
    return float(np.max(np.abs(a - b))) if a.size else 0.0


# ---------------------------------------------------------------------------
# kinetics closed form


def unitary(h, times):
    """exp(-i h t) for each t, from h = a0 I + a.sigma (no eigensolver)."""
    h = np.asarray(h, dtype=complex)
    a0 = (h[0, 0].real + h[1, 1].real) / 2.0
    traceless = h - a0 * np.eye(2)
    norm = float(np.sqrt(max(np.linalg.det(traceless).real * -1.0, 0.0)))
    t = np.asarray(times, dtype=float)[:, None, None]
    phase = np.exp(-1j * a0 * t)
    if norm == 0.0:
        return phase * np.eye(2)
    return phase * (np.cos(norm * t) * np.eye(2) - 1j * np.sin(norm * t) / norm * traceless)


def evolve_closed_form(h, choi0, times):
    """Probabilities of D(t) = W D0 W^dagger, W = exp(-i h t) kron I2, at every time."""
    u = unitary(h, times)
    d0 = np.asarray(choi0).reshape(2, 2, 2, 2)
    dt = np.einsum("tax,xcyd,tby->tacbd", u, d0, u.conj()).reshape(-1, 4, 4)
    return channel_probs(dt)


IDENTITY_CHOI = choi_of_map(lambda x: x)


def check_trajectory_csv(text, times, want_p, want_o, gate=1e-5):
    """Judge an `evolve --oracle` CSV against closed-form probabilities.

    want_p is the closed form for the run's initial channel, want_o the
    closed form of the evolution channel alone (the documented oracle
    columns). Returns None or the first problem found.
    """
    lines = text.split("\n")
    header = "t," + ",".join(f"p{i}" for i in range(1, 16)) + "," + ",".join(f"o{i}" for i in range(1, 16))
    if not lines or lines[0] != header:
        return "bad CSV header"
    if len(lines) < 3 or lines[-1] != "" or not lines[-2].startswith("# max_dev="):
        return "CSV does not end with a max_dev line"
    rows = lines[1:-2]
    if len(rows) != len(times):
        return f"CSV has {len(rows)} rows, want {len(times)}"
    try:
        cells = np.array(",".join(rows).split(","), dtype=float)
        reported = float(lines[-2][len("# max_dev="):])
    except ValueError:
        return "CSV holds a cell that is not a number"
    if cells.size != 31 * len(times):
        return "CSV rows have the wrong number of cells"
    grid = cells.reshape(len(times), 31)
    if max_dev(grid[:, 0], times) > TIGHT:
        return "time column differs from k * dt"
    p, o = grid[:, 1:16], grid[:, 16:]
    dev = max_dev(p, want_p)
    if not dev <= gate:
        return f"trajectory deviates from the closed form by {dev:.3e}"
    if not max_dev(o, want_o) <= 1e-9:
        return "oracle columns differ from the closed form"
    if reported != max_dev(p, o):
        return f"max_dev line {reported!r} is not the largest |p - o|"
    if np.array_equal(want_p, want_o) and not reported <= gate:
        return f"max_dev {reported!r} exceeds {gate}"
    return None


# ---------------------------------------------------------------------------
# CLI contract


def cli_mismatch(code, stderr, want_code):
    """None when an exit code and stderr follow the README contract for want_code."""
    if "Traceback" in stderr:
        return "traceback on stderr"
    errors = sum(1 for line in stderr.splitlines() if line.startswith("error:"))
    if code != want_code:
        return f"exit {code}"
    if want_code == 0 and errors:
        return "error line on success"
    if want_code != 0 and errors != 1:
        return f"{errors} error lines"
    return None


def parse_matrix_doc(text):
    doc = json.loads(text)
    entries = doc["entries"]
    m = np.array([[complex(re, im) for re, im in row] for row in entries])
    if doc["dim"] != m.shape[0]:
        raise ValueError("dim does not match entries")
    return m


def parse_probs_doc(text):
    return np.array(json.loads(text)["probs"], dtype=float)
