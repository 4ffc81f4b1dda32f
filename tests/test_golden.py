"""Golden guard: pinned sha256 digests of CLI stdout and ``--out`` files.

The digests were recorded before the forbidden-cycle engine was replaced,
so any change to a greedy decision, a report field or an output file shows
up here as a digest mismatch.  Inputs are built inside the test from
stdlib ``random`` so they do not depend on the package's own generators.
"""

import contextlib
import hashlib
import io
import itertools
import random

import pytest

from girthforge.cli import main


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def _random_edge_list(n: int, m: int, seed: int) -> str:
    pairs = list(itertools.combinations(range(n), 2))
    chosen = random.Random(seed).sample(pairs, m)
    return "".join(f"{u} {v}\n" for u, v in chosen)


def _run(argv, out_path):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv + ["--out", str(out_path)])
    return code, buf.getvalue(), out_path.read_text()


@pytest.fixture(scope="module")
def sparse_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("golden") / "sparse.edges"
    p.write_text(_random_edge_list(300, 1500, 20141928))
    return p


@pytest.fixture(scope="module")
def small_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("golden") / "small.edges"
    p.write_text(_random_edge_list(11, 24, 7))
    return p


# case -> (extra flags, sha256 of stdout, sha256 of the --out file)
EXTRACT_CASES = {
    "r2": (
        ["--r", "2"],
        "fdacaea4d1102b6104c95bc92213a84fe56be1d978af0089575c83c6a69b1940",
        "59db3eddc4eba0edb0df19826680be6468ca265b417146fa496ebc42789d6c16",
    ),
    "r3": (
        ["--r", "3"],
        "f7147f1b414011008c150663cdb41b29b3bdcc82e4c204165fda1899d2daf97f",
        "12ea05766f04d0b52c778e20a1c5564fdbc250063d72bfeb055a05d77baa7c3a",
    ),
    "r2-odd-free": (
        ["--r", "2", "--odd-free"],
        "1365a1e257341605b3b0fce84341305f979e3542e7ca53070099cfc41b440c9a",
        "7334c1eb726ffe95d4862c63656a76729d42e3badd351947f4d0445b60440e77",
    ),
}


@pytest.mark.parametrize("case", sorted(EXTRACT_CASES))
def test_extract_edges_digests(case, sparse_path, tmp_path):
    flags, stdout_sha, out_sha = EXTRACT_CASES[case]
    argv = ["extract", "edges", "--in", str(sparse_path), "--trials", "4",
            "--seed", "5"] + flags
    code, stdout, out = _run(argv, tmp_path / "out.edges")
    assert code == 0
    assert (_sha(stdout), _sha(out)) == (stdout_sha, out_sha)


def test_greedy_host_digests(tmp_path):
    argv = ["host", "build", "--kind", "greedy", "--n", "120", "--girth", "7",
            "--seed", "3"]
    out_path = tmp_path / "host.edges"
    code, stdout, out = _run(argv, out_path)
    meta = (tmp_path / "host.edges.meta").read_text()
    assert code == 0
    assert _sha(stdout) == (
        "8521b34f47d6f1d31560cd34c4f43259de2d60578742dfe0004c948296286a1e"
    )
    assert _sha(out) == (
        "9f332a443643902d535d38ffa43bd219b32d0128a6ce5227aa586b634a5b9114"
    )
    assert _sha(meta) == (
        "b3367fc76a32fdd2cb0d223fd154d80958f3232d5188aba17274df7ac6802bb7"
    )


def test_oracle_digests(small_path, tmp_path):
    argv = ["oracle", "--family", "even:6", "--in", str(small_path)]
    code, stdout, out = _run(argv, tmp_path / "oracle.json")
    assert code == 0
    # the JSON document goes to stdout and, verbatim, to --out
    digest = "ea627eb54a8cb6221f4f5a3dd0eaffec39ed82ad3ddd9b652e467839a7314368"
    assert (_sha(stdout), _sha(out)) == (digest, digest)
