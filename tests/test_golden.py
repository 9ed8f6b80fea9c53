"""Golden digests of exact-side CLI output.

Each job's output after its metadata line (which names the Python and numpy
versions) is pinned by its sha256.  Every number the exact side prints is
rounded once from an exact value: the roots of ``zeros`` are the Jacobi
spectrum symmetrized once, those of ``convolve`` and ``limit`` the floats
nearest exact roots, and ``moments`` rounds each integer u_k.  So the bytes
are the same under every supported Python and numpy, from ``src/`` or
installed.  ``zeros`` and ``moments`` load no numpy.
"""

import hashlib

import pytest

from freezing_dyson import cli

INPUTS = {
    "start.csv": "0.5,1,2\n",
    "other.csv": "-1,0.25,3\n",
    "laguerre.csv": "0.36,1.49,1.56,2.42,3.03,3.17,3.21\n",
    "zero.csv": "0,0,0,0\n",
    "cluster.csv": "4.0,4.1,4.2,4.3,4.4,4.5,4.6,4.7\n",
}

GOLDEN = {
    "zeros --family hermite --n 3":
        "210bf04093ed824641b8dc481c44f6ec867d0a9d27efca13e725003d06969936",
    "zeros --family hermite --n 7 --t 0.5":
        "38954cb61ac05062287ce4f74bb36c40a0515b8cfc3d07ee4056b96226206cdd",
    "zeros --family hermite --n 30 --t 2":
        "e08f5a0d0915a78fab6d395fa35398cc076724aa75f688d283824cb46cc91ec6",
    "zeros --family laguerre --n 4 --alpha 2.5":
        "10632ca4f3b53d43c879811a88d631c1a82ed4cc7918977974d734d761e321fa",
    "zeros --family laguerre --n 12 --alpha 0.75 --t 3":
        "54ee5a421e3472b8ab3882d06fcc3f7902cec2abe1606016e214c98a438d6b97",
    "convolve --a start.csv --b other.csv":
        "2fd71db1e53a4f25ca97be3d71d302eae6a772eff7762bfd9aece21ae91e9754",
    "convolve --a laguerre.csv --b laguerre.csv":
        "63444d5dd330774e16511d8a2a9a89125e3f368f610ec201130f9b34507bb7b9",
    "limit --kind gaussian --initial start.csv --t 0.5 --verify-ode":
        "7546aa1491f89f178c05c7f52da28b10a4b297ae017c38a6d09f2e4f8a0b177f",
    "limit --kind gaussian --initial zero.csv --t 1e-10 --verify-ode":
        "ebea122f606d2181ddc99b233f5c0fadef99d01ea0961750e630f9a55938a4f3",
    "limit --kind laguerre --initial laguerre.csv --alpha 6.98 --t 1e-4 --verify-ode":
        "6069a66fecf4bacb63c385f4ffa7f8d2536ef71d22e2f9d21f6baf217193aec2",
    "limit --kind laguerre --initial cluster.csv --alpha 20 --t 0.01":
        "2797a85de50524f56d0bde21c348d989e921668e6db026e985facfb176f4ab37",
    "moments --n 3 --max 10":
        "0f1338f45c3463f5110d9e4a1856e6d8d57902831c10ec456c3c2339202389a9",
    "moments --n 4 --max 60":
        "5309529446d809a9564a614f7361072144c3a25ba812e87ec72c6c3e5084a2e9",
    "moments --n 5 --max 60":
        "7d1b59452f17c47ae1f0bfa6aaa92829f3ebf4c932db6149911bb50fe47044a2",
    "moments --n 1000000 --max 60":
        "579619be366e4a1a59f7da9ce6ea6e2dc3dec7b653b2bcaa051930fd8b740806",
}


@pytest.mark.parametrize("job", list(GOLDEN))
def test_output_matches_golden_digest(job, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    assert cli.main(job.split() + ["--out", "out.csv"]) == 0
    meta, body = (tmp_path / "out.csv").read_bytes().split(b"\n", 1)
    assert meta.startswith(b"# {")
    assert hashlib.sha256(body).hexdigest() == GOLDEN[job]
