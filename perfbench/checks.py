"""Output checks that do not depend on how fourwell computes its results.

Fields and images are parsed here with numpy; perimeters and volume fractions
are counted here.  No check compares against a stored energy value, so a
change that legitimately moves energies (for instance a different Nyquist
convention on even grids) does not trip the benchmark.  Every check raises
:class:`CheckFailed` with a reason.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Relative tolerance for identities between floats the program prints.
REL_TOL = 1e-12


class CheckFailed(Exception):
    pass


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def close(a: float, b: float, what: str) -> None:
    require(
        math.isfinite(a) and math.isfinite(b) and math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-300),
        f"{what}: {a!r} != {b!r}",
    )


def parse_field(data: bytes) -> tuple[dict[str, str], np.ndarray]:
    """Parse a ``.field`` file: ``# key=value`` lines, then n1 rows of n2 labels 1..4."""
    header: dict[str, str] = {}
    pos = 0
    while data.startswith(b"# ", pos):
        end = data.index(b"\n", pos)
        key, sep, value = data[pos + 2 : end].decode().partition("=")
        require(sep == "=", f"header line without '=': {data[pos:end]!r}")
        header[key] = value
        pos = end + 1
    require("n1" in header and "n2" in header, "header lacks n1/n2")
    n1, n2 = int(header["n1"]), int(header["n2"])
    require(list(header) == sorted(header), "header keys are not sorted")
    # Each label is one digit, so a row is n2 digits, n2 - 1 spaces and a newline.
    body = np.frombuffer(data, dtype=np.uint8, offset=pos)
    require(body.size == n1 * 2 * n2, f"body has {body.size} bytes, expected {n1 * 2 * n2}")
    rows = body.reshape(n1, 2 * n2)
    require(bool((rows[:, 1:-1:2] == ord(" ")).all()), "labels not separated by single spaces")
    require(bool((rows[:, -1] == ord("\n")).all()), "rows not ended by newlines")
    labels = rows[:, 0::2] - ord("0")
    require(bool(((labels >= 1) & (labels <= 4)).all()), "labels outside 1..4")
    return header, labels


def parse_pgm(data: bytes) -> np.ndarray:
    """Parse a plain (P2) PGM with maxval 255 into a (height, width) array."""
    magic, size, maxval, body = data.split(b"\n", 3)
    require(magic == b"P2" and maxval == b"255", "not a P2 image with maxval 255")
    width, height = (int(t) for t in size.split())
    require(body.count(b"\n") == height, "PGM row count does not match its height")
    values = np.fromstring(body, dtype=np.int64, sep=" ")
    require(values.size == width * height, "PGM pixel count does not match its size")
    return values.reshape(height, width)


def check_field_and_image(field_bytes: bytes, pgm_bytes: bytes, kind: str) -> tuple[dict, np.ndarray]:
    """A generated field and its preview agree with each other and with the header."""
    header, labels = parse_field(field_bytes)
    require(header.get("kind") == kind, f"header kind {header.get('kind')!r}, expected {kind!r}")
    if "grid" in header:
        require(header["grid"] == header["n1"], "header grid differs from n1")
    image = parse_pgm(pgm_bytes)
    expected = (labels.T[::-1, :].astype(np.int64) - 1) * 85
    require(image.shape == expected.shape, f"PGM shape {image.shape}, field gives {expected.shape}")
    require(bool((image == expected).all()), "PGM gray levels do not match the field labels")
    return header, labels


def regenerate_argv(header: dict[str, str]) -> list[str]:
    """``generate`` flags that the header records; derived keys are not flags."""
    argv = ["generate", header["kind"]]
    for key in sorted(header):
        if key not in {"kind", "n1", "n2", "n-gen", "w1"}:
            argv += [f"--{key}", header[key]]
    return argv


def perimeter(labels: np.ndarray) -> float:
    """Surface energy counted directly: each face between two labels borders two phases."""
    n1, n2 = labels.shape
    jumps0 = int(np.count_nonzero(labels != np.roll(labels, -1, axis=0)))
    jumps1 = int(np.count_nonzero(labels != np.roll(labels, -1, axis=1)))
    return 2.0 * (jumps0 / n2 + jumps1 / n1)


def check_energy(text: str, labels: np.ndarray, eta: float) -> dict:
    """``energy`` output: weighted total and a surface term counted here."""
    out = json.loads(text)
    require(sorted(out) == ["elastic", "eta", "surface", "total"], f"energy keys {sorted(out)}")
    close(out["eta"], eta, "eta")
    require(math.isfinite(out["elastic"]) and out["elastic"] >= 0.0, f"elastic {out['elastic']!r}")
    root = eta ** (1.0 / 3.0)
    close(out["total"], root * out["surface"] + out["elastic"] / root**2, "total vs weighted parts")
    close(out["surface"], perimeter(labels), "surface vs counted perimeter")
    return out


def check_report(text: str, energy: dict, labels: np.ndarray, eta: float, twin: bool) -> dict:
    """``report`` output: energy block as ``energy`` printed it, fractions counted here."""
    out = json.loads(text)
    close(out["eta"], eta, "report eta")
    require(sorted(out["energy"]) == sorted(energy), "report energy keys differ from energy output")
    for key, value in energy.items():
        close(out["energy"][key], value, f"report energy.{key} vs energy output")
    counts = np.bincount(labels.ravel(), minlength=5)[1:5] / labels.size
    for got, want in zip(out["theta"], counts, strict=True):
        close(got, float(want), "volume fraction")
    for key in ("char_residual", "d12", "d14"):
        require(math.isfinite(out[key]) and out[key] >= 0.0, f"report {key} {out[key]!r}")
    if twin:
        for what, value in (
            ("outer defect", out["outer"]["defect_l1"]),
            ("inner defect", out["inner"]["defect_l2"]),
            ("d14", out["d14"]),
        ):
            require(value == 0.0, f"crossing twin {what} is {value!r}, not exactly zero")
    return out


SWEEP_COLUMNS = 12


def check_sweep(text: str, kinds: list[str], etas: list[float]) -> None:
    """``sweep`` CSV: one finite row per kind and eta, exact laminates."""
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    require(len(rows) == len(kinds) * len(etas), f"{len(rows)} rows, expected {len(kinds) * len(etas)}")
    for i, line in enumerate(rows):
        kind, eta = kinds[i // len(etas)], etas[i % len(etas)]
        values = [float(tok) for tok in line.split(",")]
        require(len(values) == SWEEP_COLUMNS, f"row {i} has {len(values)} columns")
        require(all(math.isfinite(v) for v in values), f"row {i} has a non-finite value")
        row_eta, elastic, surface, total = values[:4]
        close(row_eta, eta, f"row {i} eta")
        root = eta ** (1.0 / 3.0)
        close(total, root * surface + elastic / root**2, f"row {i} total vs weighted parts")
        close(sum(values[4:8]), 1.0, f"row {i} volume fractions")
        if kind == "laminate":
            require(abs(elastic) < 1e-12, f"laminate row {i} has elastic energy {elastic!r}")


def check_verify(text: str) -> None:
    lines = text.splitlines()
    require(bool(lines), "verify printed nothing")
    for line in lines:
        require(": PASS (" in line, f"verify line not PASS: {line!r}")
