"""Network-level payoff: explicit control frames vs CoS, under contention.

Every data packet in this WLAN generates one lightweight control message
(think per-packet reports or block-acks).  With explicit control frames,
those messages contend for the medium like everything else; with CoS they
ride inside data packets for free.  This script runs the ``network``
experiment stage on the spatial WLAN simulator (``repro.net``) and prints
its tables: goodput, control airtime share and control latency across
contention levels, then the rate-controller matrix on the hidden-node
scenario.

Run:  python examples/network_overhead.py
"""

from repro.experiments import network


def main():
    network.print_result(network.run())


if __name__ == "__main__":
    main()
