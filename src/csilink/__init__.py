"""Link-level massive MIMO-OFDM simulator with an adaptive deep-autoencoder
CSI feedback codec."""

from .chanmodel import (
    CdlProfile,
    ChannelTensor,
    Cluster,
    UraGeometry,
    draw_block_fading,
    load_cdl_profile,
    shipped_profile_path,
    steering_vector,
    synthesize_csi,
)
from .codec import (
    AutoencoderModel,
    LatentCsi,
    TrainHistory,
    ae_decode,
    ae_encode,
    ae_init,
    compress,
    decompress,
    deserialize,
    latent_dim,
    mse_loss,
    overhead_bits,
    quantize,
    serialize,
    train,
)
from .adaptive import (
    NO_COMPRESSION,
    PolicyTable,
    SlotSchedule,
    build_dataset,
    check_invalidation,
    run_adaptive,
    schedule_slots,
    select_kappa,
)
from .metrics import ErrorCounts, Stopwatch, merge
from .phylink import (
    LinkConfig,
    PilotBlock,
    PrecodeSet,
    crc_append,
    crc_check,
    generate_pilots,
    ls_estimate,
    mmse_equalizer,
    noise_var_from_snr,
    observe_pilots,
    qam16_detect,
    qam16_modulate,
    run_link_once,
    svd_precoder,
    waterfill,
)
from .expsuite import (
    ExperimentConfig,
    TrainSettings,
    emit_csi_heatmap,
    emit_history,
    load_config,
    run_adaptive_experiment,
    run_sweep,
)

__version__ = "0.1.0"
