"""Analytics toolkit for school-building sensor telemetry.

Pipeline stages: synthetic deployment generation, measurement ingestion and
per-sensor storage, data-quality accounting and repair, adaptive thermal
comfort scoring, and weekend thermal-performance anomaly detection.
"""

__version__ = "0.1.0"
