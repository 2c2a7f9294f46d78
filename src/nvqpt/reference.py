"""Loader for the bundled NV-center reference dataset (see
data/nv_reference.json for provenance)."""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .qpt import AffineMap

TIME_KEYS = ("20", "40", "80")


def load() -> dict:
    text = resources.files("nvqpt.data").joinpath("nv_reference.json").read_text()
    return json.loads(text)


def affine_experimental(data: dict | None = None) -> dict[str, AffineMap]:
    data = data or load()
    return {k: AffineMap(np.array(data["affine_experimental"][k])) for k in TIME_KEYS}


def affine_reconstructed(data: dict | None = None) -> dict[str, AffineMap]:
    data = data or load()
    return {k: AffineMap(np.array(data["affine_reconstructed"][k])) for k in TIME_KEYS}


def lindblad_operators(data: dict | None = None) -> list[np.ndarray]:
    data = data or load()
    return [
        np.array(entry["re"]) + 1j * np.array(entry["im"])
        for entry in data["lindblad_operators"]
    ]
