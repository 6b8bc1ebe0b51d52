"""Wrist PPG to HRV: signal processing, synthetic traces, and compact ML
regressors that estimate SDNN/RMSSD directly from smoothed heart rates."""
