"""End-to-end OFDM MIMO transmit/receive chain.

Payload bits are framed into per-stream codewords with a CRC, Gray-mapped to
16-QAM, precoded per subcarrier with the SVD of the *reconstructed* channel
(waterfilled eigenmode powers), propagated through the *true* channel with
AWGN, combined, MMSE-equalized and detected with a per-symbol nearest-point
decision. G and F come from the SVD of the reconstruction the receiver sees,
so G^H H_rec F is diagonal and the MMSE receiver is one complex weight per
(subcarrier, stream) (Palomar, Cioffi & Lagunas, IEEE TSP 2003): with d the
diagonal entry, w = conj(d) / (|d|^2 + sigma_n^2), of gain w d. Where the
gain exceeds 1e-12 a stream is scaled by w / gain = 1 / d, elsewhere by w,
which is exactly 0 on an unpowered mode (d = 0).

16-QAM Gray map, per axis (2 bits -> amplitude before the 1/sqrt(10) scale):
    00 -> -3    01 -> -1    11 -> +1    10 -> +3
A symbol's four bits are (b0 b1 b2 b3); (b0 b1) select the in-phase level and
(b2 b3) the quadrature level, so 0000 -> (-3 - 3j)/sqrt(10). Detection ties
are broken toward the smaller 4-bit Gray label.

The chain is split where the channel first enters. ``transmit_block`` frames
and modulates a block and draws its unit-variance link noise, none of which
depends on the channel or the SNR, so one ``TxBlock`` serves every ratio and
SNR of a realization. The block keeps the ``LinkConfig`` it was framed with;
``run_link_once`` takes it from the precoder on, at any SNR of that config.

The chain's per-subcarrier products use stacked ``@`` and the per-stream
scale, and the precoder takes its singular triplets from ``eigh`` of the
short-side Gram: they differ from the ``einsum`` form, the MMSE solve and
LAPACK's SVD only in the last bits, which moves no detection decision. The
pilot path keeps ``einsum``, since ``matmul`` there changes the estimates'
last bits and with them the sweep's ``recon_mse``. The CRC is one float32
matrix product, exact for rows shorter than 2^24 bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .chanmodel import ChannelTensor
from .metrics import ErrorCounts

# Generator polynomial x^6 + x^4 + x + 1, MSB first.
DEFAULT_CRC_POLY = (1, 0, 1, 0, 0, 1, 1)
# Transmit power summed over all subcarriers.
TOTAL_POWER = 1.0

QAM16_SCALE = 1.0 / math.sqrt(10.0)
BITS_PER_SYMBOL = 4
# Axis level for the bit pair index 2*b0 + b1 under the Gray map above.
_GRAY_LEVELS = np.array([-3.0, -1.0, 3.0, 1.0])


@dataclass(frozen=True)
class LinkConfig:
    n_t: int
    n_r: int
    n_sc: int
    snr_db: float
    crc_poly = DEFAULT_CRC_POLY  # a class constant, not a field: every link uses one generator

    def __post_init__(self):
        if min(self.n_t, self.n_r, self.n_sc) < 1:
            raise ValueError("antenna/subcarrier counts must be positive")
        if self.codeword_len < 1:
            raise ValueError(
                f"n_sc must be at least {self.crc_degree // BITS_PER_SYMBOL + 1} so that a codeword "
                f"holds a payload bit beside its degree-{self.crc_degree} CRC, got {self.n_sc}"
            )

    @property
    def n_streams(self) -> int:
        return min(self.n_t, self.n_r)

    @property
    def crc_degree(self) -> int:
        return len(self.crc_poly) - 1

    @property
    def codeword_len(self) -> int:
        """Payload bits per codeword: one codeword per (stream, OFDM symbol)."""
        return BITS_PER_SYMBOL * self.n_sc - self.crc_degree

    @property
    def subcarrier_power(self) -> float:
        """Transmit power budget per subcarrier."""
        return TOTAL_POWER / self.n_sc


@dataclass
class PrecodeSet:
    """Per-subcarrier precoders f (n_sc, n_t, n_s), combiners g (n_sc, n_r, n_s),
    singular values and waterfilled eigenmode powers (n_sc, n_s)."""

    f: np.ndarray
    g: np.ndarray
    sigma: np.ndarray
    powers: np.ndarray


@dataclass
class LinkResult:
    detected_bits: np.ndarray
    crc_ok: np.ndarray
    counts: ErrorCounts


# float32 holds every integer below 2^24 exactly, so a CRC product over
# shorter rows is exact.
_CRC_MAX_BITS = 1 << 24


@functools.lru_cache(maxsize=16)
def _crc_matrix(n_bits: int) -> np.ndarray:
    """The CRC of an n_bits message as a linear map over GF(2): row j is
    x^(n_bits-1-j+6) mod DEFAULT_CRC_POLY, MSB first, so a message's
    remainder is the mod-2 sum of the rows its set bits select (Sarwate,
    CACM 1988). Built with a Python-int shift register in O(n_bits*6)
    memory; cached and read-only. Stored as float32: the products are exact
    while n_bits is below ``_CRC_MAX_BITS``."""
    deg = len(DEFAULT_CRC_POLY) - 1
    g = int("".join(map(str, DEFAULT_CRC_POLY)), 2)
    term = 1 << deg  # x^deg, the remainder of the last message bit
    rows = []
    for _ in range(n_bits):
        if term >> deg:
            term ^= g
        rows.append(format(term, f"0{deg}b"))
        term <<= 1
    bits = np.frombuffer("".join(reversed(rows)).encode(), dtype=np.uint8) - ord("0")
    m = bits.reshape(n_bits, deg).astype(np.float32)
    m.flags.writeable = False
    return m


def crc_remainder_many(bit_rows: np.ndarray) -> np.ndarray:
    """CRC remainders of message rows (each row times x^6, mod
    DEFAULT_CRC_POLY).

    One float32 matrix product over all rows with the cached map of
    _crc_matrix. Every partial sum is an integer <= n_bits, and float32 is
    exact below 2^24, so the product is exact in any summation order; rows
    of 2^24 bits or more raise ValueError before any matrix is built.
    """
    rows = np.atleast_2d(np.asarray(bit_rows, dtype=np.uint8))
    if rows.shape[1] == 0:
        raise ValueError("messages must be non-empty")
    if rows.shape[1] >= _CRC_MAX_BITS:
        raise ValueError(f"messages must be shorter than {_CRC_MAX_BITS} bits")
    m = _crc_matrix(rows.shape[1])
    return (rows.astype(np.float32) @ m % 2).astype(np.uint8)


def crc_check_many(bit_rows: np.ndarray) -> np.ndarray:
    """Vectorized divisibility check over codeword rows (message + CRC bits).

    Uses the shifted division of crc_remainder_many; since DEFAULT_CRC_POLY
    has a constant term of 1, (block * x^6) mod DEFAULT_CRC_POLY is zero
    exactly when block mod DEFAULT_CRC_POLY is."""
    rem = crc_remainder_many(bit_rows)
    if np.shape(bit_rows)[-1] < rem.shape[1]:
        raise ValueError("received blocks shorter than the CRC")
    return ~rem.any(axis=1)


def qam16_modulate(bits) -> np.ndarray:
    """Gray-mapped square 16-QAM with unit average symbol energy."""
    b = np.asarray(bits, dtype=np.uint8)
    if b.size % 4 != 0:
        raise ValueError("bit count must be divisible by 4")
    nib = b.reshape(-1, 4)
    i = _GRAY_LEVELS[2 * nib[:, 0] + nib[:, 1]]
    q = _GRAY_LEVELS[2 * nib[:, 2] + nib[:, 3]]
    return (i + 1j * q) * QAM16_SCALE


def qam16_detect(symbols) -> np.ndarray:
    """Nearest-constellation-point decision, inverse of qam16_modulate.

    Per axis the boundaries are 0 and +-2/sqrt(10); exact boundary ties go to
    the level with the smaller Gray label, so 0 -> -1 (01), -2/sqrt(10) -> -3
    (00) and +2/sqrt(10) -> +3 (10). The four decisions of a symbol go
    straight into the columns of one bool array; |x| < t decides as
    (x > -t) & (x < t) does at +-t, +-0, +-inf and NaN."""
    z = np.asarray(symbols, dtype=np.complex128).reshape(-1)
    t = 2.0 * QAM16_SCALE
    out = np.empty((z.size, 4), dtype=bool)
    for col, x in ((0, z.real), (2, z.imag)):
        np.greater(x, 0.0, out=out[:, col])
        np.less(np.abs(x), t, out=out[:, col + 1])
    return out.view(np.uint8).reshape(-1)


def generate_pilots(n_pilot: int, n_t: int, seed) -> np.ndarray:
    """Random QPSK pilot matrix (n_pilot, n_t), column norms^2 = n_pilot,
    full column rank with condition number <= 1e3 (resampled otherwise).

    One SVD decides both: a draw that ``matrix_rank`` would call deficient
    has a smallest singular value of at most max(n_pilot, n_t)·eps times the
    largest, so its condition number is far above 1e3 (about 7e13 at 64x16).
    """
    if n_pilot < n_t:
        raise ValueError("need n_pilot >= n_t")
    rng = np.random.default_rng(seed)
    for _ in range(32):
        quad = rng.integers(0, 4, size=(n_pilot, n_t))
        x = np.exp(1j * (math.pi / 4.0 + math.pi / 2.0 * quad))
        if np.linalg.cond(x) <= 1e3:
            return x
    raise RuntimeError("failed to draw a well-conditioned pilot matrix")


def observe_pilots(h: ChannelTensor, x_pilot: np.ndarray, noise_var: float, seed) -> np.ndarray:
    """Received pilots (n_sc, n_pilot, n_r) for the pilot matrix x_pilot
    (n_pilot, n_t), per subcarrier Y_k = X @ H_k^T + N_k. A noise_var of 0
    adds exact zeros; a negative one raises ValueError."""
    rng = np.random.default_rng(seed)
    clean = np.einsum("pt,krt->kpr", x_pilot, h.data)
    shape = clean.shape
    noise = math.sqrt(noise_var / 2.0) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return clean + noise


def ls_estimate(x_pilot: np.ndarray, y_pilot: np.ndarray) -> ChannelTensor:
    """Least-squares channel estimate per subcarrier from the pilot matrix
    (n_pilot, n_t) and the received pilots (n_sc, n_pilot, n_r).

    With Y_k = X H_k^T + N the normal equations give
    H_k^T = (X^H X)^{-1} X^H Y_k. A singular X^H X raises LinAlgError rather
    than being silently regularized.
    """
    x = np.asarray(x_pilot)
    y = np.asarray(y_pilot)
    gram = x.conj().T @ x
    rhs = np.einsum("pt,kpr->ktr", x.conj(), y)
    ht = np.linalg.solve(gram[None, :, :], rhs)
    return ChannelTensor(ht.transpose(0, 2, 1))


def noise_var_from_snr(cfg: LinkConfig) -> float:
    """Noise variance per receive antenna from the transmit subcarrier SNR:
    sigma_n^2 = P_x / (n_sc * n_t * rho_linear)."""
    try:
        rho = 10.0 ** (cfg.snr_db / 10.0)
    except OverflowError:
        rho = math.inf
    if not (rho > 0 and math.isfinite(rho)):
        raise ValueError("SNR must map to a positive finite linear value")
    return TOTAL_POWER / (cfg.n_sc * cfg.n_t * rho)


def waterfill(gains, noise_var: float, budget: float) -> np.ndarray:
    """Waterfilling powers p_i = max(0, mu - noise_var/gain_i^2) over the last
    axis of ``gains``, each row summing to the budget. The water level mu is
    exact: with the floors sorted, it is (budget + sum of the k lowest floors)
    / k for the largest k whose level clears its own k-th floor (Palomar &
    Fonollosa, IEEE TSP 2005). Zero gains get no power."""
    sigma = np.asarray(gains, dtype=float)
    if budget <= 0:
        raise ValueError("power budget must be positive")
    if np.any(sigma < 0):
        raise ValueError("gains must be non-negative")
    active = sigma > 0
    if not np.all(active.any(axis=-1)):
        raise ValueError("all eigenmode gains are zero")
    floor = np.full(sigma.shape, np.inf)
    floor[active] = noise_var / sigma[active] ** 2

    ordered = np.sort(floor, axis=-1)
    levels = (budget + np.cumsum(ordered, axis=-1)) / np.arange(1, sigma.shape[-1] + 1)
    n_active = np.sum(levels > ordered, axis=-1, keepdims=True)
    mu = np.take_along_axis(levels, n_active - 1, axis=-1)
    return np.maximum(0.0, mu - floor)


def svd_precoder(h_recon: ChannelTensor, noise_var: float, budget: float) -> PrecodeSet:
    """Per-subcarrier SVD precoder/combiner from the reconstructed CSI.

    F holds the leading right singular vectors scaled by the square roots of
    the waterfilled eigenmode powers, G the leading left singular vectors.
    The singular triplets come from the Gram matrix on the short side of each
    subcarrier matrix (``_svd_triplets``). Each singular vector is rotated so
    its largest-magnitude entry is real and positive, which pins down the SVD
    sign/phase ambiguity. One waterfill call gives every subcarrier its own
    water level and the full ``budget``.
    """
    u, s, v = _svd_triplets(h_recon.data)
    u = _canonical_columns(u)
    v = _canonical_columns(v)
    powers = waterfill(s, noise_var, budget)
    f = v * np.sqrt(powers)[:, None, :]
    return PrecodeSet(f=f, g=u, sigma=s, powers=powers)


def _svd_triplets(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD triplets of a (batch, n_r, n_t) stack: left vectors
    (batch, n_r, n_s), singular values (batch, n_s) in descending order and
    right vectors (batch, n_t, n_s), n_s = min(n_r, n_t).

    ``eigh`` of the n_s x n_s Gram A A^H, with A = H (or H^H for a tall H),
    gives the short-side vectors and sigma^2; the long-side vectors are
    A^H u / sigma. The descending sort is stable, so tied values keep
    ``eigh``'s column order, and a zero mode gets a zero long-side vector
    rather than NaN. Through the Gram a singular value carries an absolute
    error of about eps * sigma_1^2 / sigma: about 1e-14 * sigma_1 at the
    spread of the shipped profiles, but about 1e-8 * sigma_1, not 1e-16, for
    the null modes of a rank-deficient matrix.
    """
    wide = h.shape[1] <= h.shape[2]
    a = h if wide else h.conj().transpose(0, 2, 1)
    a_h = a.conj().transpose(0, 2, 1)
    lam, short = np.linalg.eigh(a @ a_h)
    order = np.argsort(-lam, axis=-1, kind="stable")
    rows = np.arange(lam.shape[0])[:, None]
    s = np.sqrt(np.maximum(lam[rows, order], 0.0))
    short = short[rows[:, :, None], np.arange(lam.shape[1])[:, None], order[:, None, :]]
    # A zero mode's reciprocal is 0, so its long-side vector is zero, not NaN.
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > 0)
    long = a_h @ short * inv[:, None, :]
    return (short, s, long) if wide else (long, s, short)


def _canonical_columns(m: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    idx = np.argmax(np.abs(m), axis=1)
    lead = m[np.arange(m.shape[0])[:, None], idx, np.arange(m.shape[2])]
    mag = np.abs(lead)
    phase = np.where(mag > 0, lead / np.where(mag > 0, mag, 1.0), 1.0)
    return m * phase.conj()[:, None, :]


def frame_codewords(payload: np.ndarray, cfg: LinkConfig) -> np.ndarray:
    """Split payload into zero-padded codeword rows filling whole OFDM symbol
    periods: rows = n_periods * n_streams, row length = codeword_len."""
    payload = np.asarray(payload, dtype=np.uint8)
    l_cw = cfg.codeword_len
    n_cw = max(1, math.ceil(payload.size / l_cw))
    n_periods = math.ceil(n_cw / cfg.n_streams)
    n_cw = n_periods * cfg.n_streams
    padded = np.zeros(n_cw * l_cw, dtype=np.uint8)
    padded[: payload.size] = payload
    return padded.reshape(n_cw, l_cw)


@dataclass(frozen=True)
class TxBlock:
    """The transmit side of one block, everything before the channel enters:
    the framed payload ``codewords`` (n_cw, codeword_len), the 16-QAM
    ``symbols`` grid (n_sc, n_streams, n_periods), the unit-variance complex
    ``unit_noise`` (n_sc, n_r, n_periods) the link scales by its SNR, the
    payload length and the link config ``cfg`` it was framed with. The arrays
    are read-only, so one block can be shared by every ratio and SNR of a
    realization."""

    codewords: np.ndarray
    symbols: np.ndarray
    unit_noise: np.ndarray
    payload_bits: int
    cfg: LinkConfig


def transmit_block(payload, cfg: LinkConfig, seed) -> TxBlock:
    """Frame, CRC-protect and modulate a payload bit vector, and draw the link
    noise of one block from ``seed``: the half of the chain that depends on
    neither the channel nor the SNR."""
    tx_cw = frame_codewords(payload, cfg)
    n_periods = tx_cw.shape[0] // cfg.n_streams
    coded = np.concatenate([tx_cw, crc_remainder_many(tx_cw)], axis=1)

    # Codeword (period p, stream s) occupies stream s across all subcarriers
    # of OFDM symbol period p: 4*n_sc coded bits per codeword.
    symbols = qam16_modulate(coded.reshape(-1)).reshape(n_periods, cfg.n_streams, cfg.n_sc)
    s_grid = np.ascontiguousarray(symbols.transpose(2, 1, 0))

    rng = np.random.default_rng(seed)
    shape = (cfg.n_sc, cfg.n_r, n_periods)
    unit = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for a in (tx_cw, s_grid, unit):
        a.flags.writeable = False
    return TxBlock(tx_cw, s_grid, unit, np.asarray(payload).size, cfg)


def _equalized_grid(tx: TxBlock, pset: PrecodeSet, h_true: np.ndarray, h_recon: np.ndarray, noise_var: float) -> np.ndarray:
    """The combined and equalized grid (n_sc, n_streams, n_periods), each
    stream scaled as the module docstring says; 1/d is formed only where it
    is used, so no division warns."""
    g_h = pset.g.conj().transpose(0, 2, 1)
    d = np.sum(pset.g.conj() * (h_recon @ pset.f), axis=1)
    mag2 = d.real**2 + d.imag**2
    power = mag2 + noise_var
    scale = d.conj() / power
    active = mag2 / power > 1e-12
    scale[active] = 1.0 / d[active]

    z = g_h @ h_true @ pset.f @ tx.symbols
    z += (math.sqrt(noise_var / 2.0) * g_h) @ tx.unit_noise
    z *= scale[:, :, None]
    return z


def run_link_once(tx: TxBlock, h_true: ChannelTensor, h_recon: ChannelTensor, cfg: LinkConfig) -> LinkResult:
    """One pass of a transmitted block through the channel and the receiver.

    The precoder, combiner and equalizer are derived from ``h_recon``;
    propagation uses ``h_true``, and the link noise is ``tx.unit_noise``
    scaled to the SNR of ``cfg``. ``tx`` must come from ``transmit_block``
    with a config equal to ``cfg`` in every field but the SNR. G and F
    diagonalize ``h_recon``, so the MMSE weight is one complex scale per
    stream, 1/d where its gain exceeds 1e-12, and no 4x4 solve undoes what
    the SVD already did. The tests require the same error counts as the
    textbook chain of LAPACK's SVD, ``einsum`` products and the MMSE solve.
    """
    if h_true.dims != (cfg.n_sc, cfg.n_r, cfg.n_t) or h_recon.dims != h_true.dims:
        raise ValueError("channel tensor dimensions do not match the link config")
    noise_var = noise_var_from_snr(cfg)
    if replace(tx.cfg, snr_db=cfg.snr_db) != cfg:
        raise ValueError("transmitted block was not framed for the link config")
    tx_cw = tx.codewords
    n_cw, l_cw = tx_cw.shape

    pset = svd_precoder(h_recon, noise_var, cfg.subcarrier_power)
    z = _equalized_grid(tx, pset, h_true.data, h_recon.data, noise_var)

    rx_bits = qam16_detect(z.transpose(2, 1, 0).reshape(-1))
    rx_rows = rx_bits.reshape(n_cw, l_cw + cfg.crc_degree)
    crc_ok = crc_check_many(rx_rows)
    rx_payload = rx_rows[:, :l_cw]

    counts = ErrorCounts(
        bit_errors=int(np.count_nonzero(rx_payload != tx_cw)),
        bits_total=tx_cw.size,
        block_errors=n_cw - int(np.count_nonzero(crc_ok)),
        blocks_total=n_cw,
    )
    detected = rx_payload.reshape(-1)[: tx.payload_bits]
    return LinkResult(detected_bits=detected, crc_ok=crc_ok, counts=counts)
