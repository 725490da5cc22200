"""CoS — Communication through Symbol Silence (ICDCS 2017) reproduction.

A faithful software implementation of the paper's full stack:

* :mod:`repro.phy` — IEEE 802.11a OFDM baseband (Sora SoftWiFi substitute);
* :mod:`repro.channel` — indoor frequency-selective fading substrate;
* :mod:`repro.ratectl` — SNR-threshold data-rate adaptation and the
  pluggable rate controllers;
* :mod:`repro.cos` — the contribution: silence-symbol control channel with
  interval coding, energy detection, EVM-driven subcarrier selection,
  erasure Viterbi decoding, and adaptive control-message rate;
* :mod:`repro.analysis` — metrics;
* :mod:`repro.experiments` — one harness per paper figure.

Quickstart::

    from repro import CosLink, IndoorChannel
    link = CosLink(channel=IndoorChannel.position("A", snr_db=18.0, seed=7))
    outcome = link.exchange(payload=b"x" * 1024, control_bits=[0, 1, 1, 0])
    assert outcome.data_ok and outcome.control_ok
"""

__version__ = "1.0.0"

from repro.channel import IndoorChannel
from repro.cos import CosLink, CosReceiver, CosTransmitter

__all__ = ["IndoorChannel", "CosLink", "CosReceiver", "CosTransmitter", "__version__"]
