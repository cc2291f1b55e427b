"""SHA-256 pins of spline and EAM outputs.

Recorded while ``UniformCubicSpline.evaluate`` still had its own segment
lookup and Horner step and the staged EAM pair stage still looped
per-type masks.  Both now read the packed
:class:`~repro.potentials.spline.SplineGroup` banks through
``grouped_spline_eval``, which performs the same IEEE operations per
point — so none of these digests may move.  A failure here is a changed
result, never a test to re-record.
"""

import hashlib

import numpy as np
import pytest

from repro.md.boundary import Box
from repro.md.neighbor_list import NeighborList
from repro.potentials.alloy import mix_tables
from repro.potentials.eam import EAMPotential
from repro.potentials.elements import make_element_tables
from tests.conftest import knots


def digest(*arrays) -> str:
    """SHA-256 over dtype, shape and bytes of each array (or scalar)."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def tables():
    ta, w = make_element_tables("Ta"), make_element_tables("W")
    return {"Ta": ta, "Cu": make_element_tables("Cu"), "W": w,
            "WTa": mix_tables(w, ta)}


def _splines(tables):
    out = {}
    for name, t in tables.items():
        out.update({f"{name}-rho{k}": s for k, s in enumerate(t.rho)})
        out.update({f"{name}-embed{k}": s for k, s in enumerate(t.embed)})
        out.update({f"{name}-phi{a}{b}": s for (a, b), s in t.phi.items()})
    return out


def spline_points(spline, seed: int) -> np.ndarray:
    """61 seeded abscissae: below ``x0``, on knots, at ``x_max`` and one
    ulp either side of it, inside, above, and a NaN."""
    rng = np.random.default_rng(seed)
    x0, xm, h = spline.x0, spline.x_max, spline.h
    return np.concatenate([
        x0 - h * rng.uniform(0.0, 3.0, 6),
        knots(spline)[rng.integers(0, spline.n, 6)],
        [xm, np.nextafter(xm, -np.inf), np.nextafter(xm, np.inf)],
        rng.uniform(x0, xm, 41),
        xm + h * rng.uniform(0.0, 3.0, 4),
        [np.nan],
    ])


def cluster(seed: int, n: int = 125, spacing: float = 3.1) -> np.ndarray:
    """A jittered cubic grid of ``n`` atoms, centred on the origin."""
    rng = np.random.default_rng(seed)
    side = int(np.ceil(n ** (1 / 3)))
    grid = np.stack(np.meshgrid(*[np.arange(side)] * 3, indexing="ij"),
                    axis=-1).reshape(-1, 3)[:n]
    pos = grid * spacing + rng.uniform(-0.3, 0.3, size=(n, 3)) * spacing
    return pos - pos.mean(axis=0)


def cluster_case(tables, name: str, seed: int = 5):
    """``(potential, n, half table, types)`` for a Ta or W/Ta cluster."""
    pot = EAMPotential(tables[name])
    pos = cluster(seed)
    n = len(pos)
    box = Box.open(np.ptp(pos, axis=0) + 4 * pot.cutoff)
    half = NeighborList(box, pot.cutoff, skin=0.4).pairs(pos)
    types = None
    if pot.tables.n_types > 1:
        types = np.random.default_rng(seed).integers(0, pot.tables.n_types, n)
    return pot, n, half, types


SPLINE_PINS = {
    "Cu-embed0":
        "cb05ca3e537f3feb0b747b4242e51d0b195d4747831fcf3aa7ebadd2a1e6ff59",
    "Cu-phi00":
        "51274ad819c1d2dd66923afeff027bf46c8d15c19210ecead72b8baa252fa7a9",
    "Cu-rho0":
        "cc8f270267bcbdd0308f11025319ba7b87a7e1e38a3542b1eedfe539eef976cd",
    "Ta-embed0":
        "a32a39ccc2e172ffaa8565ccbacd0248e501c15d3f954f0664d967f86bad86de",
    "Ta-phi00":
        "02beaceb596723ba2db74f1f9ebbde7658701b36fa861dc4908f2c82269be42e",
    "Ta-rho0":
        "0387be3ccc88cce189ef71a72278a68fa8dd7184ff2e7902def3ade465c6e914",
    "W-embed0":
        "8cb68b29958da4acfbf82c1f6fcb8f5acfdcd2ba0155605ffe5ccefa0b64724a",
    "W-phi00":
        "6bf3656139c54d3ccfd38571d66bcfc6c6f7ecbf49cc7d6838ad19142d353ed3",
    "W-rho0":
        "ebc90fb6a4b9bc5ff88ba073357b4986f88ce5ae1a7c6dd3a3784871f11d4f37",
    "WTa-embed0":
        "42b3220155fdaf3993f78c105abf14629d80fa888535756e8d88601a6cfef59c",
    "WTa-embed1":
        "c0eb788f127d266a059596bc84590727d11927f3f68441187bb67581aef10426",
    "WTa-phi00":
        "cee005850f84fea1b0a6426c7e1df409b66520ac2ecd17cf90ec76fe0ef9f13d",
    "WTa-phi01":
        "10730cc22b4aae21cdf51337573e919b035d9a758a7300a68bc25699fe46261b",
    "WTa-phi11":
        "c7e3199752ed6cbb2b2fc392a47eab792dd0ee47a23bd8d462007b7d12fb4a59",
    "WTa-rho0":
        "4afea43d773479e8c006a6c36a8835b0ea62a77f13742941145e3311cede2664",
    "WTa-rho1":
        "562b2872afc4338a2d91e38572d91794bd1955b0bf8bf55c4feae09209d99909",
}

EAM_PINS = {
    "Ta-half":
        "e7eccbce7b6d096106df4a81cabe4d21678be2d62e96415b14044d3b01aeb004",
    "Ta-directed":
        "3aa4ef2c5c7e17646c94d65a16d63128f46446ac073fcefea38e68d3cce87ca6",
    "WTa-half":
        "3a34d64945b7344dd636b3a9226d0013aa913af881e70a2f0d4c3ba04cb7abc9",
    "WTa-directed":
        "c707fa4e35fc059becda787e78ffbca587790884a8317ae0c394b56537029097",
}


def spline_digest(splines, name: str) -> str:
    spline = splines[name]
    x = spline_points(spline, seed=len(name))
    return digest(
        *spline.evaluate(x),
        *spline.evaluate(x[20]),  # 0-d in, scalars out
        *spline.evaluate(x[:60].reshape(6, 10)),
    )


def eam_digest(tables, name: str) -> str:
    element, kind = name.split("-")
    pot, n, half, types = cluster_case(tables, element)
    pairs = half if kind == "half" else half.directed()
    return digest(*pot.compute(n, pairs, types))


@pytest.mark.parametrize("name", sorted(SPLINE_PINS))
def test_spline_evaluate_pinned(tables, name):
    assert spline_digest(_splines(tables), name) == SPLINE_PINS[name]


@pytest.mark.parametrize("name", sorted(EAM_PINS))
def test_eam_compute_pinned(tables, name):
    assert eam_digest(tables, name) == EAM_PINS[name]


if __name__ == "__main__":  # pragma: no cover - how the pins were recorded
    import json

    ta = make_element_tables("Ta")
    w = make_element_tables("W")
    tabs = {"Ta": ta, "Cu": make_element_tables("Cu"), "W": w,
            "WTa": mix_tables(w, ta)}
    splines = _splines(tabs)
    print(json.dumps({
        "spline": {k: spline_digest(splines, k) for k in sorted(splines)},
        "eam": {f"{e}-{kind}": eam_digest(tabs, f"{e}-{kind}")
                for e in ("Ta", "WTa") for kind in ("half", "directed")},
    }, indent=1))
