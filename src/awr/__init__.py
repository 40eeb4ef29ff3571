"""Closed-form disk mappings with Schwarzian certification, boundary
reflection, and quasidisk diagnostics."""
