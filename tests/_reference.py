"""Independent straight-line oracles used by the tests.

Everything here is written with plain Python floats and explicit loops,
or with numpy one window and one gate at a time, deliberately sharing no
code with the package, so that agreement between the two is evidence
rather than tautology.
"""

import csv
import io
import math
import struct
from collections import namedtuple

import numpy as np


def sigmoid_scalar(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


_GATES = "ifgo"  # checkpoint v1's gate order
_CELLS = ("enc_fw", "enc_bw", "dec_fw", "dec_bw")

# one cell (fused w, b) or one affine layer (w, b) of a ModelParams
Layer = namedtuple("Layer", "w b")


def cells_and_heads(params):
    """The four cells (enc_fw, enc_bw, dec_fw, dec_bw) and two heads
    (head_fw, head_bw) of a ModelParams, as Layers."""
    return ([Layer(w, b) for w, b in zip(params.lstm_w, params.lstm_b)],
            [Layer(w, b) for w, b in zip(params.head_w, params.head_b)])


def cell_gates(w, b):
    """The per-gate tensors of one fused cell, as views keyed w_i ... w_o,
    u_i ... u_o, b_i ... b_o (checkpoint v1's order).

    The fused weight `w` (4h, d+h) holds the gates' row blocks in the order
    i, f, o, g and acts on [x, h]: its first d columns are the input
    weights, the rest the recurrent ones; the bias `b` (4h,) has the same
    row blocks.
    """
    h = b.shape[0] // 4
    d = w.shape[1] - h
    rows = {gate: slice(k * h, (k + 1) * h) for k, gate in enumerate("ifog")}
    out = {f"w_{gate}": w[rows[gate], :d] for gate in _GATES}
    out.update({f"u_{gate}": w[rows[gate], d:] for gate in _GATES})
    out.update({f"b_{gate}": b[rows[gate]] for gate in _GATES})
    return out


def v1_tensors(params):
    """Every parameter tensor of a ModelParams in checkpoint v1's order, as
    {path: view}: each cell gate by gate, then head_fw.w, head_fw.b,
    head_bw.w, head_bw.b, then each merge layer's w and b."""
    out = {}
    for c, name in enumerate(_CELLS):
        for gate, tensor in cell_gates(params.lstm_w[c], params.lstm_b[c]).items():
            out[f"{name}.{gate}"] = tensor
    for s, name in enumerate(("head_fw", "head_bw")):
        out[f"{name}.w"], out[f"{name}.b"] = params.head_w[s], params.head_b[s]
    for n, layer in enumerate(params.merge):
        out[f"merge.{n}.w"], out[f"merge.{n}.b"] = layer.w, layer.b
    return out


def write_v1(params, mean, std):
    """The bytes of a v1 checkpoint, written from the format's description:
    a 32-byte header, the normalization statistics, then `v1_tensors`."""
    cfg = params.config
    variant = ("linear", "endpoint", "constant").index(cfg.schedule_variant)
    header = b"GAPFILL\x00" + struct.pack(
        "<IIIBBBBII", 1, cfg.input_dim, cfg.hidden_dim, variant, int(cfg.merge_hidden > 0),
        int(cfg.forward_only), 0, cfg.merge_hidden, len(mean))
    tensors = [mean, std, *v1_tensors(params).values()]
    return header + b"".join(np.ascontiguousarray(t, dtype="<f8").tobytes() for t in tensors)


def lstm_step_scalar(p, x, h_prev, c_prev):
    """One LSTM step, scalar arithmetic only.

    `p` holds a fused cell's `w` and `b` (an LstmParams or a Layer);
    x/h_prev/c_prev are Python lists. Returns (h, c).
    """
    gates = cell_gates(p.w, p.b)
    hd = len(h_prev)
    h_new, c_new = [], []
    for j in range(hd):
        def pre(w, u, b):
            s = b[j]
            for k in range(len(x)):
                s += float(w[j, k]) * x[k]
            for k in range(hd):
                s += float(u[j, k]) * h_prev[k]
            return s
        i, f, g, o = (pre(gates[f"w_{k}"], gates[f"u_{k}"], gates[f"b_{k}"]) for k in _GATES)
        i, f, g, o = sigmoid_scalar(i), sigmoid_scalar(f), math.tanh(g), sigmoid_scalar(o)
        c = f * c_prev[j] + i * g
        c_new.append(c)
        h_new.append(o * math.tanh(c))
    return h_new, c_new


def mse(truth, pred):
    """Mean squared error of two equal-length, non-empty sequences."""
    if len(truth) != len(pred) or len(truth) == 0:
        raise ValueError(f"mse needs equal non-zero lengths, got {len(truth)} and {len(pred)}")
    total = 0.0
    for t, p in zip(truth, pred):
        d = float(t) - float(p)
        total += d * d
    return total / len(truth)


def affine_scalar(aff, x):
    out = []
    for j in range(aff.w.shape[0]):
        s = float(aff.b[j])
        for k in range(len(x)):
            s += float(aff.w[j, k]) * x[k]
        out.append(s)
    return out


def network_forward_scalar(params, before, missing_len, after, gamma, gamma_prime):
    """Whole-network forward pass in scalar arithmetic.

    before/after are lists of lists (rows); returns (merged, pred_fw, pred_bw)
    as lists of rows. Assumes the single linear merge layer.
    """
    hd = params.config.hidden_dim
    (enc_fw, enc_bw, dec_fw, dec_bw), (head_fw, head_bw) = cells_and_heads(params)
    h = [0.0] * hd
    c = [0.0] * hd
    for row in before:
        h, c = lstm_step_scalar(enc_fw, row, h, c)
    pred_fw, h_fw = [], []
    x = before[-1]
    for _ in range(missing_len):
        h, c = lstm_step_scalar(dec_fw, x, h, c)
        h_fw.append(h)
        x = affine_scalar(head_fw, h)
        pred_fw.append(x)

    h = [0.0] * hd
    c = [0.0] * hd
    for row in reversed(after):
        h, c = lstm_step_scalar(enc_bw, row, h, c)
    pred_bw_steps, h_bw_steps = [], []
    x = after[0]
    for _ in range(missing_len):
        h, c = lstm_step_scalar(dec_bw, x, h, c)
        h_bw_steps.append(h)
        x = affine_scalar(head_bw, h)
        pred_bw_steps.append(x)
    h_bw = list(reversed(h_bw_steps))
    pred_bw = list(reversed(pred_bw_steps))

    merged = []
    for t in range(missing_len):
        u = [gamma[t] * v for v in h_fw[t]] + [gamma_prime[t] * v for v in h_bw[t]]
        merged.append(affine_scalar(params.merge[0], u))
    return merged, pred_fw, pred_bw


def _sigmoid(a):
    return 1.0 / (1.0 + np.exp(-a))


def _cell_step(p, x, h, c):
    """One LSTM step of one window, gate by gate (`p` from `cell_gates`);
    returns h, c and its tape."""
    pre = {k: p[f"w_{k}"] @ x + p[f"u_{k}"] @ h + p[f"b_{k}"] for k in _GATES}
    i, f, o = _sigmoid(pre["i"]), _sigmoid(pre["f"]), _sigmoid(pre["o"])
    g = np.tanh(pre["g"])
    c_new = f * c + i * g
    h_new = o * np.tanh(c_new)
    return h_new, c_new, (x, h, c, i, f, g, o, c_new)


def _cell_step_back(p, name, tape, dh, dc, grads):
    """Backward through one `_cell_step`; accumulates into grads[name.*] and
    returns the gradients w.r.t. x, the previous h and the previous c."""
    x, h, c, i, f, g, o, c_new = tape
    tc = np.tanh(c_new)
    dc = dc + dh * o * (1.0 - tc * tc)
    da = {"i": dc * g * i * (1.0 - i), "f": dc * c * f * (1.0 - f),
          "g": dc * i * (1.0 - g * g), "o": dh * tc * o * (1.0 - o)}
    dx, dh_prev = 0.0, 0.0
    for k in _GATES:
        grads[f"{name}.w_{k}"] += np.outer(da[k], x)
        grads[f"{name}.u_{k}"] += np.outer(da[k], h)
        grads[f"{name}.b_{k}"] += da[k]
        dx = dx + p[f"w_{k}"].T @ da[k]
        dh_prev = dh_prev + p[f"u_{k}"].T @ da[k]
    return dx, dh_prev, dc * f


def _stream(params, s, context, gap_len):
    """Stream s (0 forward, 1 backward): encoder cell s over `context` rows
    in order, then the self-feeding decoder cell 2 + s with head s."""
    hd = params.config.hidden_dim
    cells, heads = cells_and_heads(params)
    enc, dec, head = cell_gates(*cells[s]), cell_gates(*cells[2 + s]), heads[s]
    h, c = np.zeros(hd), np.zeros(hd)
    enc_tapes, dec_tapes, hs, preds = [], [], [], []
    for row in context:
        h, c, tape = _cell_step(enc, row, h, c)
        enc_tapes.append(tape)
    x = context[-1]
    for _ in range(gap_len):
        h, c, tape = _cell_step(dec, x, h, c)
        dec_tapes.append(tape)
        hs.append(h)
        x = head.w @ h + head.b
        preds.append(x)
    return {"h": hs, "pred": preds, "enc": enc_tapes, "dec": dec_tapes}


def _stream_back(params, s, st, d_pred, dh_merge, grads):
    """BPTT of `_stream` s, whose output is `st`; d_pred and dh_merge are in
    its processing order."""
    cells, heads = cells_and_heads(params)
    enc, dec, head = _CELLS[s], _CELLS[2 + s], ("head_fw", "head_bw")[s]
    hd = params.config.hidden_dim
    dh, dc, d_in = np.zeros(hd), np.zeros(hd), 0.0
    for t in reversed(range(len(d_pred))):
        dp = d_pred[t] + d_in
        grads[f"{head}.w"] += np.outer(dp, st["h"][t])
        grads[f"{head}.b"] += dp
        dh = dh + heads[s].w.T @ dp + dh_merge[t]
        d_in, dh, dc = _cell_step_back(cell_gates(*cells[2 + s]), dec, st["dec"][t], dh, dc,
                                       grads)
    for tape in reversed(st["enc"]):
        _, dh, dc = _cell_step_back(cell_gates(*cells[s]), enc, tape, dh, dc, grads)


def window_forward(params, before, after, gamma, gamma_prime):
    """The network over one window: (before (L_b, d), after (L_a, d)), with
    the stream weights of its gap. Returns a dict of per-position arrays
    named like the fields of `ForwardTrace`, plus the streams' tapes."""
    cfg = params.config
    T = len(gamma)
    fw = _stream(params, 0, before, T)
    out = {"h_fw": np.array(fw["h"]), "pred_fw": np.array(fw["pred"]), "h_bw": None,
           "pred_bw": None, "merge_hidden_acts": None, "_fw": fw, "_bw": None, "_u": None}
    if cfg.forward_only:
        out["merged"] = out["pred_fw"]
        return out
    bw = _stream(params, 1, after[::-1], T)
    out["_bw"] = bw
    out["h_bw"], out["pred_bw"] = np.array(bw["h"][::-1]), np.array(bw["pred"][::-1])
    u = [np.concatenate([gamma[t] * out["h_fw"][t], gamma_prime[t] * out["h_bw"][t]])
         for t in range(T)]
    out["_u"] = u
    first = params.merge[0]
    if cfg.merge_hidden:
        z = [np.tanh(first.w @ u_t + first.b) for u_t in u]
        out["merge_hidden_acts"] = np.array(z)
        out["merged"] = np.array([params.merge[1].w @ z_t + params.merge[1].b for z_t in z])
    else:
        out["merged"] = np.array([first.w @ u_t + first.b for u_t in u])
    return out


def window_loss_and_grads(params, before, after, truth, gamma, gamma_prime,
                          term_weights=(1.0, 1.0, 1.0)):
    """One window's loss (each term a mean over its T*d gap cells) and the
    gradient of every parameter, as {path: array} keyed like `v1_tensors`."""
    cfg = params.config
    T, d = truth.shape
    hd = cfg.hidden_dim
    out = window_forward(params, before, after, gamma, gamma_prime)
    grads = {path: np.zeros_like(t) for path, t in v1_tensors(params).items()}

    def mse(pred):
        return float(np.sum((pred - truth) ** 2)) / (T * d)

    coef = 2.0 / (T * d)
    if cfg.forward_only:
        d_pred = [coef * (out["pred_fw"][t] - truth[t]) for t in range(T)]
        _stream_back(params, 0, out["_fw"], d_pred, [0.0] * T, grads)
        return mse(out["merged"]), grads

    w_m, w_fw, w_bw = term_weights
    value = w_m * mse(out["merged"]) + w_fw * mse(out["pred_fw"]) + w_bw * mse(out["pred_bw"])
    dh_fw, dh_bw = [], []
    for t in range(T):
        dm = w_m * coef * (out["merged"][t] - truth[t])
        u = out["_u"][t]
        if cfg.merge_hidden:
            z = out["merge_hidden_acts"][t]
            grads["merge.1.w"] += np.outer(dm, z)
            grads["merge.1.b"] += dm
            da = (params.merge[1].w.T @ dm) * (1.0 - z * z)
            grads["merge.0.w"] += np.outer(da, u)
            grads["merge.0.b"] += da
            du = params.merge[0].w.T @ da
        else:
            grads["merge.0.w"] += np.outer(dm, u)
            grads["merge.0.b"] += dm
            du = params.merge[0].w.T @ dm
        dh_fw.append(gamma[t] * du[:hd])
        dh_bw.append(gamma_prime[t] * du[hd:])
    d_fw = [w_fw * coef * (out["pred_fw"][t] - truth[t]) for t in range(T)]
    _stream_back(params, 0, out["_fw"], d_fw, dh_fw, grads)
    # the backward stream's step k fills gap position T-1-k
    d_bw = [w_bw * coef * (out["pred_bw"][T - 1 - k] - truth[T - 1 - k]) for k in range(T)]
    _stream_back(params, 1, out["_bw"], d_bw, dh_bw[::-1], grads)
    return value, grads


def adam_step_expression(m, v, theta, g, t, lr, b1, b2, eps):
    """One Adam update written as whole-array expressions, in place."""
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * (g * g)
    theta -= lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)


def mae_loop(truth, pred):
    total = 0.0
    for t, p in zip(truth, pred, strict=True):
        total += abs(t - p)
    return total / len(truth)


def mre_loop(truth, pred):
    num = 0.0
    den = 0.0
    for t, p in zip(truth, pred, strict=True):
        num += abs(t - p)
        den += abs(t)
    return num / den


def enumerate_window_starts(n_rows, total, stride):
    """Brute-force window offsets: scan every row, keep the strided fits."""
    starts = []
    for s in range(n_rows):
        if s % stride == 0 and s + total <= n_rows:
            starts.append(s)
    return starts


_M64 = 0xFFFFFFFFFFFFFFFF


class ScalarXorshiftStar:
    """splitmix64-seeded xorshift64*, one draw per call, Box-Muller normals.

    Mirrors the documented stream of `gapfill.numerics.Rng` from its
    definition: seed scramble, state recurrence, output multiplier, the top
    53 bits as a float in [0, 1), and a cached second normal deviate.
    """

    def __init__(self, seed):
        z = ((seed & _M64) + 0x9E3779B97F4A7C15) & _M64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        z ^= z >> 31
        self.state = z if z else 0x9E3779B97F4A7C15
        self.spare = None

    def next_u64(self):
        s = self.state
        s ^= s >> 12
        s ^= (s << 25) & _M64
        s ^= s >> 27
        self.state = s
        return (s * 0x2545F4914F6CDD1D) & _M64

    def unit(self):
        return (self.next_u64() >> 11) / 9007199254740992.0  # 2**53

    def uniform(self, lo, hi):
        return lo + (hi - lo) * self.unit()

    def normal(self, mu=0.0, sigma=1.0):
        if self.spare is not None:
            z, self.spare = self.spare, None
            return mu + sigma * z
        u1 = self.unit()
        while u1 <= 0.0:
            u1 = self.unit()
        u2 = self.unit()
        r = math.sqrt(-2.0 * math.log(u1))
        self.spare = r * math.sin(2.0 * math.pi * u2)
        return mu + sigma * (r * math.cos(2.0 * math.pi * u2))


def init_params_scalar(seed, input_dim, hidden_dim, merge_hidden):
    """Freshly initialized network parameters as {path: (shape, flat list)}.

    Draw order: the four LSTMs (enc_fw, enc_bw, dec_fw, dec_bw), each its
    input weights w_i, w_f, w_g, w_o then recurrent weights u_i .. u_o,
    uniform in +-1/sqrt(h); then head_fw.w, head_bw.w in +-1/sqrt(h); then
    the merge weights in +-1/sqrt(fan_in). Biases are drawn from nothing:
    b_f is 1, every other bias 0.
    """
    rng = ScalarXorshiftStar(seed)
    d, h = input_dim, hidden_dim
    out = {}

    def draw(path, rows, cols, k):
        out[path] = ((rows, cols), [rng.uniform(-k, k) for _ in range(rows * cols)])

    def const(path, n, value):
        out[path] = ((n,), [value] * n)

    for comp in ("enc_fw", "enc_bw", "dec_fw", "dec_bw"):
        k = 1.0 / math.sqrt(h)
        for gate in "ifgo":
            draw(f"{comp}.w_{gate}", h, d, k)
        for gate in "ifgo":
            draw(f"{comp}.u_{gate}", h, h, k)
        for gate in "ifgo":
            const(f"{comp}.b_{gate}", h, 1.0 if gate == "f" else 0.0)
    for head in ("head_fw", "head_bw"):
        draw(f"{head}.w", d, h, 1.0 / math.sqrt(h))
        const(f"{head}.b", d, 0.0)
    if merge_hidden:
        draw("merge.0.w", merge_hidden, 2 * h, 1.0 / math.sqrt(2 * h))
        const("merge.0.b", merge_hidden, 0.0)
        draw("merge.1.w", d, merge_hidden, 1.0 / math.sqrt(merge_hidden))
        const("merge.1.b", d, 0.0)
    else:
        draw("merge.0.w", d, 2 * h, 1.0 / math.sqrt(2 * h))
        const("merge.0.b", d, 0.0)
    return out


def load_csv_scalar(path, columns=None, markers=("NA", ""), header=None, rows=None):
    """`load_csv` one cell at a time: `float(cell.strip())`, markers compared after strip;
    a marker or a non-finite number is missing and reads as NaN. With `rows`,
    half-open data-row ranges, a cell outside every range is not parsed and
    reads as NaN and missing. With
    `header=None` a first row without text is data; with text in a selected
    cell, or anywhere when every column is selected or a column is chosen by
    name, it is the header; otherwise the call is an error.

    Returns (names, values, missing, row_lines, fields) as lists; raises
    ValueError with the message `load_csv` gives. Only the selected columns
    are parsed, each data row in file order and, within a row, the
    selected fields in file order.
    """
    markers = [m.strip() for m in markers]
    row_ranges = rows
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows, row_lines, line = [], [], 0
        for record in reader:
            if record:
                rows.append(record)
                row_lines.append(line)
            line = reader.line_num
    if not rows:
        raise ValueError(f"{path}: file has no rows")

    def numeric_or_marker(cell):
        text = cell.strip()
        if text in markers:
            return True
        try:
            float(text)
        except ValueError:
            return False
        return True

    def is_index(sel):
        return isinstance(sel, int) or (isinstance(sel, str)
                                        and sel.removeprefix("-").isdecimal())

    if header is None:
        text = [c for c, cell in enumerate(rows[0]) if not numeric_or_marker(cell)]
        if not text:
            header = False
        elif columns is None or any(not is_index(sel) for sel in columns):
            header = True
        elif any(int(sel) in text for sel in columns):
            header = True
        else:
            raise ValueError(f"{path}: the first row has text only in columns not selected, "
                             "so it may be a header or data; set header to yes or no")
    if header:
        names = [cell.strip() for cell in rows[0]]
        rows, row_lines = rows[1:], row_lines[1:]
    else:
        names = ["col" + str(i) for i in range(len(rows[0]))]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    for r in range(len(rows)):
        if len(rows[r]) != len(names):
            raise ValueError(f"{path}: row {r + 1} has {len(rows[r])} cells, "
                             f"expected {len(names)}")

    fields = []
    for sel in (range(len(names)) if columns is None else columns):
        if is_index(sel):
            if not 0 <= int(sel) < len(names):
                raise ValueError(f"column index {int(sel)} out of range "
                                 f"(table has {len(names)})")
            fields.append(int(sel))
        elif sel in names:
            fields.append(names.index(sel))
        else:
            raise ValueError(f"unknown column {sel!r}; available: {names}")

    parsed = {}
    for r in range(len(rows)):
        cast = row_ranges is None or any(start <= r < stop for start, stop in row_ranges)
        for c in sorted(set(fields)):
            cell = rows[r][c]
            text = cell.strip()
            if not cast or text in markers:
                parsed[r, c] = (math.nan, True)
                continue
            try:
                value = float(text)
            except ValueError:
                raise ValueError(f"{path}: row {r + 1}, column {names[c]!r}: "
                                 f"cannot parse {cell!r}") from None
            parsed[r, c] = (value, False) if math.isfinite(value) else (math.nan, True)
    values = [[parsed[r, c][0] for c in fields] for r in range(len(rows))]
    missing = [[parsed[r, c][1] for c in fields] for r in range(len(rows))]
    return [names[c] for c in fields], values, missing, row_lines, fields


def rewrite_lines(path, row_lines, fields, rows, values):
    """The text of `path` with the cells at `fields` of the data rows `rows`
    set to `repr(float(v))` of `values`, a record at a time.

    The file is split into its physical lines; each record is re-parsed from
    its first line with csv.reader and re-written with csv.writer, keeping
    its line ending, and its other lines are emptied, so the line numbers of
    later records stay valid.
    """
    with open(path, newline="") as fh:
        lines = fh.readlines()
    for r, row in zip(rows, values):
        start = row_lines[r]
        reader = csv.reader(lines[i] for i in range(start, len(lines)))
        record = next(reader)
        end = start + reader.line_num
        for col, v in zip(fields, row):
            record[col] = repr(float(v))
        ending = lines[end - 1][len(lines[end - 1].rstrip("\r\n")):]
        out = io.StringIO()
        csv.writer(out, lineterminator="\r\n").writerow(record)
        lines[start:end] = [out.getvalue()[:-2] + ending] + [""] * (end - start - 1)
    return "".join(lines)
