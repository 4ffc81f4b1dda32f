"""Golden guard: pinned sha256 digests of CLI stdout and ``--out`` files.

Each digest was recorded at the commit before the code it guards was
rewritten (the forbidden-cycle engine; the resampler, the C4 certificate
and the projective hosts; the closed-form host lines and
``Graph.from_edges``; the one certification step and the ``sweep`` rows
that read it; the case-1 host cache and trial loop), so any change to a greedy decision, a resampling
step, a witness, a report field or an output file shows up here as a
digest mismatch.  Inputs are built inside the test from stdlib
``random`` so they do not depend on the package's own generators.
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


# r -> (sha256 of stdout, sha256 of the --out file); K_{5,20} is the input
# that reaches case 1, with the incidence-trim host at r = 2 and the
# cover-trim host at r = 3
CASE1_CASES = {
    "2": (
        "606c47fa4279bf9fe3d682ff229d3a903ba0c26ba7e8c7c09f901f66d93e043a",
        "444b503b920cdcd7ec5e432f84bd15585645a5395ac425dcae0ef5e9d10cbe2c",
    ),
    "3": (
        "5eb40a9bdec97fcc6f7d654666a046f8b3eacfd361a42f9abc2c27586e2fdec3",
        "1e2c659dc3ccae06d59a8ad6d78fb16f64b9976a771618a0f355d3428f59c952",
    ),
}


@pytest.mark.parametrize("r", sorted(CASE1_CASES))
def test_extract_edges_case1_digests(r, tmp_path):
    path = tmp_path / "k5_20.edges"
    path.write_text("".join(f"{i} {5 + j}\n" for i in range(5) for j in range(20)))
    argv = ["extract", "edges", "--in", str(path), "--trials", "4", "--seed", "5",
            "--r", r]
    code, stdout, out = _run(argv, tmp_path / "out.edges")
    assert code == 0
    assert (_sha(stdout), _sha(out)) == CASE1_CASES[r]


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


# r -> (sha256 of stdout, sha256 of the --out file)
DEGREE_CASES = {
    "2": (
        "aab96f365e8616604352fccc2379305afc6e8ecea3c9e4033099d7239bb00e41",
        "e77b7c8e7ba2756f2bddd48dd6a3a44b79c90271dbbd4584bb1627ba15360eeb",
    ),
    "3": (
        "4358ad0e503a78108d3a11ed31378260f7680f638a91eb319bf7f4dd1089be29",
        "e77b7c8e7ba2756f2bddd48dd6a3a44b79c90271dbbd4584bb1627ba15360eeb",
    ),
}


@pytest.mark.parametrize("r", sorted(DEGREE_CASES))
def test_extract_degree_digests(r, sparse_path, tmp_path):
    argv = ["extract", "degree", "--in", str(sparse_path), "--trials", "2",
            "--seed", "5", "--r", r]
    code, stdout, out = _run(argv, tmp_path / "out.edges")
    assert code == 0
    assert (_sha(stdout), _sha(out)) == DEGREE_CASES[r]


# (kind, q) -> (sha256 of stdout, of the --out file, of its .meta)
PROJECTIVE_CASES = {
    ("incidence", "5"): (
        "e0aff95caa3750593cae23601e98e0b4c83aed53d65c69012fb9d535b34ea624",
        "cd42dd9ceaa25495fa4a8bfb0121ed4d9aed7f94c1a866d98b6445290835c577",
        "f1aaef90e60cf7b85beecf24d893a5ceb381e9440bfa95f03bea90520089fe6f",
    ),
    ("polarity", "7"): (
        "7e8b00e78b0e8eb107b9f55f039192d2959a6e34c213e2f24046d86fd32fc7c6",
        "278e733fdeb5392d116d096a21deae240d6b3b35d8fba55ea69c3d785af5792f",
        "154e243738544296dfb251f570f176e7e8a5372f40b1ae4667a53c94ad378f52",
    ),
    # q = 31: all three point forms occur in bulk, and the C4 checks of
    # both hosts take the large-workload path (incidence: 985,056 pairs)
    ("incidence", "31"): (
        "03ab290aa94cbe1715e8475e050ea3575afecc543af20d59a5b8e369b0493268",
        "14944b7bd0ca4b3eb2b4686256210c6b8158e72a87fb1da2bf672299fb8692e5",
        "bb28c262fca17f1d50405b3b81707895da791a12fdf4d6746c996bcfbaae9140",
    ),
    ("polarity", "31"): (
        "2cd56b8832d7b4fca96a7f0b5efef043d8cbb383ec6d3603a8a462c0322d8118",
        "83672dc4bf7af2e2b9a989fd2c81e9a97bb120466f7ebedb711a5510c6568bdd",
        "2ab3c4fff579a92e8126398e39fe059f11fbd4d67370c8d25647034ee5b82484",
    ),
}


@pytest.mark.parametrize("kind, q", sorted(PROJECTIVE_CASES))
def test_projective_host_digests(kind, q, tmp_path):
    argv = ["host", "build", "--kind", kind, "--q", q]
    out_path = tmp_path / "host.edges"
    code, stdout, out = _run(argv, out_path)
    meta = (tmp_path / "host.edges.meta").read_text()
    assert code == 0
    assert (_sha(stdout), _sha(out), _sha(meta)) == PROJECTIVE_CASES[(kind, q)]


def test_verify_large_c4_witness_digest(tmp_path):
    # K_{100,100}: sum of C(d,2) is 990,000, past the small-workload C4
    # path, so this pins the witness of the large-graph path
    path = tmp_path / "k100.edges"
    path.write_text("".join(f"{i} {100 + j}\n" for i in range(100) for j in range(100)))
    argv = ["verify", "--family", "even:4", "--in", str(path)]
    code, stdout, out = _run(argv, tmp_path / "verify.json")
    assert code == 2
    digest = "a818d21fd060fcda9f7ec682c20b404acde58d1f2a434372543c5b86ac272fc8"
    assert (_sha(stdout), _sha(out)) == (digest, digest)


# mode -> (extra flags, sha256 of stdout, which --out repeats verbatim)
SWEEP_CASES = {
    "f": (
        ["--n", "10:16:2", "--trials", "2"],
        "5dfae2ce2bbaa19343df8746a894ed48e70ad0eefd6369aceaa38358b8258fd3",
    ),
    "h": (
        ["--n", "8:14:2", "--trials", "1"],
        "7b413399ed8a5c4fe9a85c16170b1a2c49e3ffe69fcd9e490d6564e70f350513",
    ),
}


@pytest.mark.parametrize("mode", sorted(SWEEP_CASES))
def test_sweep_digests(mode, tmp_path):
    flags, digest = SWEEP_CASES[mode]
    argv = ["sweep", "--mode", mode, "--seed", "5"] + flags
    code, stdout, out = _run(argv, tmp_path / "sweep.csv")
    assert code == 0
    assert (_sha(stdout), _sha(out)) == (digest, digest)
