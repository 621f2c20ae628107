"""Benchmark for primecover; see README.md in this directory."""
