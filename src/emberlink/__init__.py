"""Wildfire spread / sensor detection / satellite uplink capacity toolkit.

Submodules:
  envdata     gridded wind, soil-wetness, and biomass inputs; incident lists
  firekernel  single-ellipse fire spread math
  evolution   hour-by-hour frontier branching, burned-circle area, detection
  sensors     uniform sensor deployments; proximity queries scan the field
  carbon      burned area -> carbon tonnage, price, and savings
  linkbudget  GEO uplink CNR, throughput, supportable sensor counts
  config      default configuration, its checked merge, config dataclasses
  harness     sensor-count sweeps over a season and their outputs
  cli         command-line entry point
"""

__version__ = "0.1.0"
