"""Synthetic toy benchmark: seeded scenes, a per-pixel model and its trainer, as submodules."""
