"""Radar-band spectrum monitoring toolkit.

Synthesizes radar pulse trains, WLAN/LTE-like interferers and noise;
computes amplitude, phase-difference, spectrogram and AP representations;
trains from-scratch CNN detectors (S / A / P / AP variants); and scores
them with accuracy reports and detection-probability curves over PSNR.
Import the submodules (``radarmon.dataset``, ``radarmon.nn``, ...) directly.
"""

__version__ = "0.1.0"
