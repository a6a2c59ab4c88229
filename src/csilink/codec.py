"""Deep-autoencoder CSI codec.

The feedback payload is produced by vectorizing a CSI tensor, stacking real
and imaginary parts, min-max normalizing, pushing the result through a small
MLP encoder into a linear latent layer, and truncating the latent values past
the sixth decimal. The receiving side runs the decoder MLP and undoes the
normalization and vectorization. Training is plain mini-batch Adam on a
complex-aware mean squared error, implemented from scratch so the whole
pipeline stays dependency-light and bit-reproducible.

Training gives the bits of the textbook computation (a fresh array per
step, full-batch products). Training, validation and inference call one
forward pass, written as three parts: the encoder (_encode), the decoder's
hidden layer (_decode_hidden) and its sigmoid output layer
(_decode_output). A training set is written sample by sample into its split
order and normalized once (split_dataset), into one read-only array from
which every model trained on it gathers its batches and reads its
validation rows. Training and validation run the output layer in row blocks
that stay in cache (_output_layer), and a training step holds at most two
full-batch arrays (backprop). Adam and the normalization run in place, in
the textbook operation order.

Layer stack (input m = 2*n_sc*n_r*n_t, latent d = 2*n_r*n_t*ceil((1-k)*n_sc)):

    m -> 10 (ReLU) -> 10 (ReLU) -> d (linear) -> 10 (ReLU) -> m (sigmoid)
"""

from __future__ import annotations

import copy
import math
import struct
import time
from dataclasses import dataclass

import numpy as np

from .chanmodel import ChannelTensor

WIRE_MAGIC = b"CSIC"
WIRE_VERSION = 1
# Bits per latent element on the wire: the latent is float32.
LATENT_BITS = 32

_HIDDEN = 10
# Adam's decay rates and denominator offset (Kingma & Ba, ICLR 2015).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Bytes per array of one output-layer row block (4 rows at the desk width),
# so that a block's four arrays (output, targets, deltas and the sigmoid's
# numerator) stay in a core's L2 cache between its steps.
_BLOCK_BYTES = 1 << 19


class WireFormatError(ValueError):
    """Raised when compressed-CSI bytes do not parse."""


@dataclass
class TrainHistory:
    train_loss: list[float]
    val_loss: list[float]
    duration_s: float

    @property
    def epochs(self) -> int:
        return len(self.train_loss)


@dataclass
class AutoencoderModel:
    kappa: float
    dims: tuple[int, int, int]  # (n_sc, n_r, n_t)
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    norm_min: float
    norm_max: float
    kappa_index: int = 0

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def latent_width(self) -> int:
        return self.weights[2].shape[1]

    def params(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out


@dataclass
class LatentCsi:
    """Quantized latent feedback plus the metadata the wire format carries."""

    values: np.ndarray
    kappa_index: int
    dims: tuple[int, int, int]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)


def realify(x) -> np.ndarray:
    """[Re(x); Im(x)] stacking, doubling the length. Each half is written
    straight into the result, with no intermediate copy."""
    x = np.asarray(x)
    n = len(x)
    out = np.empty((2 * n,) + x.shape[1:])
    out[:n] = x.real
    out[n:] = x.imag
    return out


def complexify(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.size % 2 != 0:
        raise ValueError("realified vector must have even length")
    half = v.size // 2
    return v[:half] + 1j * v[half:]


def vectorize_csi(h: ChannelTensor) -> np.ndarray:
    """Flatten subcarrier-major, then rx, then tx: index (k, r, t) lands at
    k*n_r*n_t + r*n_t + t."""
    return h.data.reshape(-1)


def devectorize_csi(v, dims) -> ChannelTensor:
    n_sc, n_r, n_t = dims
    v = np.asarray(v, dtype=np.complex128)
    if v.size != n_sc * n_r * n_t:
        raise ValueError("vector length does not match the tensor dims")
    return ChannelTensor(v.reshape(n_sc, n_r, n_t))


def latent_dim(kappa: float, n_sc: int, n_r: int, n_t: int) -> int:
    """Real latent width 2*n_r*n_t*ceil((1-kappa)*n_sc)."""
    if not 0.0 < kappa < 1.0:
        raise ValueError("compression ratio must lie strictly between 0 and 1")
    return 2 * n_r * n_t * math.ceil((1.0 - kappa) * n_sc)


@dataclass(frozen=True)
class NormStats:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError("degenerate normalization stats (max must exceed min)")


def normalize(v, stats: NormStats, out=None) -> np.ndarray:
    """Affine map of [lo, hi] onto [0, 1], clipping out-of-range inputs.
    ``out`` may be ``v`` itself."""
    v = np.asarray(v, dtype=float)
    out = np.subtract(v, stats.lo, out=np.empty_like(v) if out is None else out)
    out /= stats.hi - stats.lo
    return np.clip(out, 0.0, 1.0, out=out)


def denormalize(v, stats: NormStats) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v * (stats.hi - stats.lo) + stats.lo


def _glorot(rng, fan_in, fan_out):
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def _layer_shapes(kappa: float, dims) -> list[tuple[int, int]]:
    """(fan_in, fan_out) of the five layers for a ratio and CSI dims."""
    n_sc, n_r, n_t = dims
    m = 2 * n_sc * n_r * n_t
    d = latent_dim(kappa, n_sc, n_r, n_t)
    return [(m, _HIDDEN), (_HIDDEN, _HIDDEN), (_HIDDEN, d), (d, _HIDDEN), (_HIDDEN, m)]


def ae_init(kappa: float, dims, seed, kappa_index: int = 0) -> AutoencoderModel:
    """Fresh model with Glorot-uniform weights and zero biases.

    Each layer draws from its own seed-derived stream, so models that share a
    seed but differ only in the latent width start from identical draws in
    the layers whose shapes match (paired initialization across ratios).
    """
    n_sc, n_r, n_t = dims
    sizes = _layer_shapes(kappa, dims)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    streams = root.spawn(len(sizes))
    weights = [_glorot(np.random.default_rng(s), fi, fo) for s, (fi, fo) in zip(streams, sizes)]
    biases = [np.zeros(fo) for _, fo in sizes]
    return AutoencoderModel(
        kappa=kappa,
        dims=(n_sc, n_r, n_t),
        weights=weights,
        biases=biases,
        norm_min=0.0,
        norm_max=1.0,
        kappa_index=kappa_index,
    )


def _relu(x):
    return np.maximum(x, 0.0)


def _sigmoid(x):
    """Overflow-free logistic function, elementwise and in place: x is
    overwritten with 1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x))
    otherwise, with e = exp(-|x|) shared by both, and returned. Since e <= 1,
    max(e, x >= 0) is the numerator of either branch, which selects without
    masked gathers."""
    pos = x >= 0
    e = np.abs(x, out=x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.maximum(e, pos)
    e += 1.0
    return np.divide(num, e, out=e)


def _encode(model: AutoencoderModel, x, out=None):
    """Encoder of a batch of input rows: the hidden activations a1 and a2 and
    the linear latent z3, written into ``out`` when one is given."""
    w, b = model.weights, model.biases
    a1 = _relu(x @ w[0] + b[0])
    a2 = _relu(a1 @ w[1] + b[1])
    z3 = np.matmul(a2, w[2], out=out)
    z3 += b[2]
    return a1, a2, z3


def _decode_hidden(model: AutoencoderModel, z) -> np.ndarray:
    """The decoder's hidden ReLU layer a4 of a batch of latent rows."""
    return _relu(z @ model.weights[3] + model.biases[3])


def _decode_output(model: AutoencoderModel, a4, out=None) -> np.ndarray:
    """The decoder's sigmoid output layer of a batch of hidden rows a4,
    written into ``out`` when one is given."""
    y = np.matmul(a4, model.weights[4], out=out)
    y += model.biases[4]
    return _sigmoid(y)


def mse_loss(a, b, dims) -> float:
    """Complex-aware mean squared error: the summed squared differences of the
    realified vectors divided by the complex element count n_sc*n_r*n_t."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("length mismatch")
    n_sc, n_r, n_t = dims
    return float(np.sum((a - b) ** 2) / (n_sc * n_r * n_t))


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params])


def adam_step(params, grads, state: AdamState, lr) -> AdamState:
    """Bias-corrected Adam update, applied to the parameter arrays in place."""
    for g in grads:
        if not np.isfinite(g).all():
            raise FloatingPointError("non-finite gradient")
    state.t += 1
    t = state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        # p -= lr*m_hat / (sqrt(v_hat) + eps), step by step in two scratch
        # arrays, in the operation order of that expression.
        s1, s2 = np.empty_like(p), np.empty_like(p)
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, g, out=s1)
        v *= ADAM_BETA2
        np.multiply(1.0 - ADAM_BETA2, g, out=s1)
        s1 *= g
        v += s1
        np.divide(m, 1.0 - ADAM_BETA1**t, out=s1)
        s1 *= lr
        np.divide(v, 1.0 - ADAM_BETA2**t, out=s2)
        np.sqrt(s2, out=s2)
        s2 += ADAM_EPS
        s1 /= s2
        p -= s1
    return state


def _output_layer(model: AutoencoderModel, a4, x, sq, delta=None, delta_scale=None):
    """Squared errors of the sigmoid output layer against the targets ``x``,
    written into ``sq``, and, given ``delta``, its deltas
    delta_scale*diff*y*(1-y), written into ``delta``.

    ``sq`` may be ``x`` itself: each row block's squares are written over
    that block's targets once its difference is formed. The layer runs in
    row blocks of about _BLOCK_BYTES per array, so a block's output and
    difference stay in cache through the elementwise steps. Every entry keeps
    its arithmetic: a block's a4 @ w reduces over the hidden width exactly as
    the full product does, and no block holds a single row of a larger batch,
    which BLAS would compute as a matrix-vector product with other rounding.
    """
    n, m = x.shape
    rows = max(2, _BLOCK_BYTES // (8 * m))
    starts = list(range(0, n, rows))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    buf = np.empty((min(n, rows + 1), m))
    for lo, hi in zip(starts, starts[1:] + [n]):
        y = _decode_output(model, a4[lo:hi], out=buf[: hi - lo])
        # The difference is made where it is used up: squared in place for
        # the loss alone, otherwise scaled in place into the delta.
        diff = np.subtract(y, x[lo:hi], out=(sq if delta is None else delta)[lo:hi])
        np.square(diff, out=sq[lo:hi])
        if delta is not None:
            diff *= delta_scale
            diff *= y
            np.subtract(1.0, y, out=y)
            diff *= y


def _leading(buf, cols) -> np.ndarray:
    """A C-contiguous (rows, cols) array over the first entries of the
    contiguous (rows, >= cols) array ``buf``, whose values are dead."""
    return buf.reshape(-1)[: buf.shape[0] * cols].reshape(buf.shape[0], cols)


def backprop(model: AutoencoderModel, data, rows=None) -> tuple[float, list[np.ndarray]]:
    """Mean loss of the batch ``data[rows]`` (all rows when ``rows`` is None)
    and its exact gradients w.r.t. every weight and bias.

    The batch rows are both input and target (already normalized). The ReLU
    subgradient at 0 is taken as 0. The result equals the textbook form,
    with the deltas ((c*diff)*y)*(1-y), bit for bit, and ``data`` is never
    written to.

    Two (batch, input) arrays hold everything as wide as the batch: the
    gathered copy x and the output deltas d5. The latent z3 is computed into
    d5 before the deltas overwrite it, and recomputed into x, over the summed
    squared errors, for its weight gradient; d3 then takes its place. Once x
    dies, the inputs are gathered again into d5 for the first layer's weight
    gradient. The gradients are fresh arrays the caller owns. The ReLU masks
    read the activations, since relu(z) > 0 exactly where z > 0.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if rows is None:
        rows = np.arange(data.shape[0])
    x = data[rows]
    if x.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    w, b = model.weights, model.biases
    n_complex = model.input_dim // 2
    bsz = x.shape[0]
    d5 = np.empty_like(x)
    latent = w[2].shape[1]

    a1, a2, z3 = _encode(model, x, out=_leading(d5, latent))
    a4 = _decode_hidden(model, z3)
    # The loss and every product that reduces over the batch or the input
    # width run on the full batch: blocking them would reorder their sums.
    _output_layer(model, a4, x, x, d5, 2.0 / (n_complex * bsz))
    loss = float(np.sum(x) / (n_complex * bsz))

    gw5 = a4.T @ d5
    gb5 = d5.sum(axis=0)
    d4 = (d5 @ w[4].T) * (a4 > 0)
    # The gradients of the two weights with a wide input, (input, 10), are
    # taken as the transpose of the (10, input) product: the same sums in a
    # faster BLAS layout, copied back to row-major for the Adam step.
    z3 = np.matmul(a2, w[2], out=_leading(x, latent))
    z3 += b[2]
    gw4 = (d4.T @ z3).T.copy()
    gb4 = d4.sum(axis=0)
    d3 = np.matmul(d4, w[3].T, out=_leading(x, latent))
    gw3 = a2.T @ d3
    gb3 = d3.sum(axis=0)
    d2 = (d3 @ w[2].T) * (a2 > 0)
    del z3, d3  # the last views of the gathered batch, which dies with x below
    gw2 = a1.T @ d2
    gb2 = d2.sum(axis=0)
    d1 = (d2 @ w[1].T) * (a1 > 0)
    # rows passed the bounds check of the first gather; "wrap" reads them as
    # it did, and unlike the default mode does not buffer the output.
    x = np.take(data, rows, axis=0, out=d5, mode="wrap")
    gw1 = (d1.T @ x).T.copy()
    gb1 = d1.sum(axis=0)

    return loss, [gw1, gb1, gw2, gb2, gw3, gb3, gw4, gb4, gw5, gb5]


def _batch_loss(model: AutoencoderModel, x) -> float:
    a4 = _decode_hidden(model, _encode(model, x)[2])
    sq = np.empty_like(x)
    _output_layer(model, a4, x, sq)
    return float(np.sum(sq) / ((model.input_dim // 2) * x.shape[0]))


@dataclass(frozen=True)
class TrainSplit:
    """A training set split and normalized once (split_dataset), read by
    every model trained on it. Both splits are read-only views of one array."""

    train: np.ndarray  # the training rows, normalized
    val: np.ndarray | None  # the validation rows, normalized, or None
    stats: NormStats  # taken from the training rows alone
    rng: np.random.Generator  # the split's generator, past its permutation


def _validation_rows(val_fraction: float, n: int) -> int:
    """round(val_fraction * n), the validation rows of an n-sample split,
    which must leave at least one training row. TrainSettings checks its
    fields through this rule at load."""
    # NaN and infinity fail the range test before the rounding.
    if not 0 <= val_fraction < 1:
        raise ValueError(f"val_fraction must be finite, >= 0 and below 1, got {val_fraction}")
    n_val = int(round(val_fraction * n))
    if n_val >= n:
        raise ValueError(f"validation split leaves no training samples of {n}, val_fraction {val_fraction}")
    return n_val


def split_dataset(samples, seed, val_fraction: float) -> TrainSplit:
    """Shuffle-split realified CSI vectors into one array and normalize it.

    ``samples`` is anything with ``len()`` whose integer index gives one
    realified row, such as a 2-D array; it is read once per row and never
    written to. The permutation is the first draw of the generator seeded
    with ``seed``, and depends on nothing but the seed and the sample count:
    row j of the split is sample order[j], its first round(val_fraction * n)
    rows validate and the rest train. The statistics are taken from the
    training rows, and the array is normalized in place and made read-only.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("dataset must be a non-empty (n_samples, input_dim) array")

    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_val = _validation_rows(val_fraction, n)

    first = np.asarray(samples[order[0]], dtype=float)
    if first.ndim != 1:
        raise ValueError("dataset must be a non-empty (n_samples, input_dim) array")
    x = np.empty((n, first.size))
    x[0] = first
    for j in range(1, n):
        x[j] = samples[order[j]]
    stats = NormStats(float(x[n_val:].min()), float(x[n_val:].max()))
    normalize(x, stats, out=x)
    x.flags.writeable = False
    return TrainSplit(train=x[n_val:], val=x[:n_val] if n_val else None, stats=stats, rng=rng)


def train(
    model: AutoencoderModel,
    split: TrainSplit,
    epochs: int,
    batch_size: int,
    learning_rate: float,
) -> tuple[AutoencoderModel, TrainHistory]:
    """Shuffled mini-batch Adam on a split's training rows.

    The split's normalization statistics are stored on the model; per-epoch
    losses are recorded in normalized space. Each epoch's shuffle is drawn
    from a copy of the split's generator, so every model trained on one split
    sees the same batches. Deterministic given the split (wall-clock duration
    aside).
    """
    if split.train.shape[1] != model.input_dim:
        raise ValueError("dataset vectors do not match the model input width")
    model.norm_min, model.norm_max = split.stats.lo, split.stats.hi

    rng = copy.deepcopy(split.rng)
    n_train = split.train.shape[0]
    params = model.params()
    state = AdamState.for_params(params)
    train_curve, val_curve = [], []
    start = time.perf_counter()
    for _ in range(epochs):
        perm = rng.permutation(n_train)
        losses = []
        for lo in range(0, n_train, batch_size):
            loss, grads = backprop(model, split.train, perm[lo : lo + batch_size])
            adam_step(params, grads, state, learning_rate)
            del grads  # not held through the next step's backprop
            losses.append(loss)
        train_curve.append(float(np.mean(losses)))
        val_curve.append(_batch_loss(model, split.val) if split.val is not None else float("nan"))
    return model, TrainHistory(train_loss=train_curve, val_loss=val_curve, duration_s=time.perf_counter() - start)


def quantize(v) -> np.ndarray:
    """Truncate each element past the sixth decimal, toward zero. Idempotent.

    The scaled value is rounded at its own sixth decimal first, which removes
    binary representation fuzz without changing which decimal step a value
    truncates to.
    """
    v = np.asarray(v, dtype=float)
    return np.trunc(np.round(v * 1e6, 6)) / 1e6


def compress(model: AutoencoderModel, h: ChannelTensor) -> LatentCsi:
    """quantize( encode( normalize( realify( vectorize(h) ) ) ) )."""
    if h.dims != model.dims:
        raise ValueError(f"tensor dims {h.dims} do not match model dims {model.dims}")
    stats = NormStats(model.norm_min, model.norm_max)
    x = normalize(realify(vectorize_csi(h)), stats)
    z = quantize(_encode(model, x[None])[2][0])
    return LatentCsi(values=z, kappa_index=model.kappa_index, dims=model.dims)


def decompress(model: AutoencoderModel, latent: LatentCsi) -> ChannelTensor:
    """devectorize( complexify( denormalize( decode(latent) ) ) )."""
    if latent.kappa_index != model.kappa_index:
        raise ValueError("latent was produced with a different compression ratio")
    if tuple(latent.dims) != model.dims:
        raise ValueError("latent dims do not match the model")
    if latent.values.size != model.latent_width:
        raise ValueError("latent length does not match the model")
    stats = NormStats(model.norm_min, model.norm_max)
    a4 = _decode_hidden(model, latent.values.astype(float)[None])
    y = denormalize(_decode_output(model, a4)[0], stats)
    return devectorize_csi(complexify(y), model.dims)


def overhead_bits(b: int, d_real: int, k_count: int) -> int:
    """Feedback payload bits plus the ratio-index overhead:
    b*d_real + ceil(log2(k_count))."""
    if b < 1 or d_real < 1 or k_count < 1:
        raise ValueError("arguments must be positive")
    return b * d_real + math.ceil(math.log2(k_count))


_WIRE_HEADER = struct.Struct("<4sBBBIIII")


def serialize(latent: LatentCsi) -> bytes:
    """Wire format: magic 'CSIC', version, kappa index byte, bits-per-element
    byte (always LATENT_BITS), three u32 dims, u32 latent length, then the
    latent as little-endian IEEE-754 singles."""
    n_sc, n_r, n_t = latent.dims
    header = _WIRE_HEADER.pack(
        WIRE_MAGIC,
        WIRE_VERSION,
        latent.kappa_index,
        LATENT_BITS,
        n_sc,
        n_r,
        n_t,
        latent.values.size,
    )
    return header + latent.values.astype("<f4").tobytes()


def deserialize(blob: bytes) -> LatentCsi:
    if len(blob) < _WIRE_HEADER.size:
        raise WireFormatError("truncated header")
    magic, version, kappa_index, bits, n_sc, n_r, n_t, d_real = _WIRE_HEADER.unpack_from(blob)
    if magic != WIRE_MAGIC:
        raise WireFormatError(f"bad magic {magic!r}")
    if version != WIRE_VERSION:
        raise WireFormatError(f"unsupported version {version}")
    if bits != LATENT_BITS:
        raise WireFormatError(f"unsupported bits-per-element {bits}")
    if min(n_sc, n_r, n_t) == 0:
        raise WireFormatError(f"zero dimension in dims {(n_sc, n_r, n_t)}")
    if d_real == 0:
        raise WireFormatError("empty latent")
    payload = blob[_WIRE_HEADER.size :]
    if len(payload) != 4 * d_real:
        raise WireFormatError(f"payload holds {len(payload)} bytes, expected {4 * d_real}")
    values = np.frombuffer(payload, dtype="<f4").copy()
    return LatentCsi(values=values, kappa_index=kappa_index, dims=(n_sc, n_r, n_t))
