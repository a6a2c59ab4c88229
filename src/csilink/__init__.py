"""Link-level massive MIMO-OFDM simulator with an adaptive deep-autoencoder
CSI feedback codec. The submodules are the API; the package holds only the
version."""

__version__ = "0.1.0"
