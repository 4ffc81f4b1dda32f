"""Golden guard: pinned sha256 digests of CLI stdout and ``--out`` files.

Each digest was recorded at the commit before the code it guards was
rewritten (the forbidden-cycle engine; the resampler, the C4 certificate
and the projective hosts; the closed-form host lines and
``Graph.from_edges``; the one certification step and the ``sweep`` rows
that read it; the case-1 host cache and trial loop; the infinite girth of
a forest; the one command-line dispatch, with a ``verify`` witness from
each forbidden-cycle search path), so any change to a greedy decision, a
resampling step, a witness, a report field or an output file shows up
here as a digest mismatch.  Inputs are built inside the test from stdlib
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
# that reaches case 1, with the incidence-trim host at r = 2 and the star
# host at r = 3 (the girth-7 cover of 20 vertices has fewer than 20 edges
# at its top 5 vertices)
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
        "133c38b5334da99a953a7ee319357befd39b2c6716d7d89fc7de6cb7fb5d4702",
        "e77b7c8e7ba2756f2bddd48dd6a3a44b79c90271dbbd4584bb1627ba15360eeb",
    ),
    "3": (
        "d214a95e9729fa5a7d3fe2169d01a4de729fffc2107a26e6ded73abbb8c8829d",
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


# The forest path: every girth field below is infinite, in the JSON, the
# host's .meta and the sweep CSV.
TREE = "0 1\n1 2\n1 3\n3 4\n"


def test_forest_host_digests(tmp_path):
    argv = ["host", "build", "--kind", "greedy", "--n", "5", "--girth", "5",
            "--seed", "0"]
    out_path = tmp_path / "host.edges"
    code, stdout, out = _run(argv, out_path)
    meta = (tmp_path / "host.edges.meta").read_text()
    assert code == 0
    assert (_sha(stdout), _sha(out), _sha(meta)) == (
        "825b23fb927600ccf100cdbec3d226b371886575f57d0f7e6f15b3c3e835fa4d",
        "5a3d9a744524b3c1cb71c7c6c664110b4c295c96134220e2dd8d313d74e78601",
        "5a892d7af3fbcfaf3e946693a44460cd729c93fd6afb446e4ad8333950114e56",
    )


def test_forest_verify_digest(tmp_path):
    path = tmp_path / "tree.edges"
    path.write_text(TREE)
    argv = ["verify", "--family", "even:4", "--in", str(path)]
    code, stdout, out = _run(argv, tmp_path / "verify.json")
    assert code == 0
    digest = "644f52af8551df323322e71e00a362cb8b0694994364023a42e20d1f4a63e5a6"
    assert (_sha(stdout), _sha(out)) == (digest, digest)


def test_forest_extract_degree_digests(tmp_path):
    path = tmp_path / "tree.edges"
    path.write_text(TREE)
    argv = ["extract", "degree", "--r", "2", "--trials", "1", "--seed", "1",
            "--in", str(path)]
    code, stdout, out = _run(argv, tmp_path / "out.edges")
    assert code == 0
    assert (_sha(stdout), _sha(out)) == (
        "5fba975a98c349089fa546baf6430dcd996ec6cb2cb800fa5e6f9dd518e48ed9",
        "d36e97be366d3a8816b230dce5c94eb6b5bd030ef95edca78d7821fb0238bcd8",
    )


def test_forest_sweep_digest(tmp_path):
    argv = ["sweep", "--mode", "h", "--family-input", "star", "--n", "4:7:1",
            "--trials", "1", "--seed", "1"]
    code, stdout, out = _run(argv, tmp_path / "sweep.csv")
    assert code == 0
    digest = "0a2af07acbef75fd3343903e6bfdce6cf0b38b9eddf65cf984d07cd3ae9bfe16"
    assert (_sha(stdout), _sha(out)) == (digest, digest)


# The verify witnesses of the forbidden-cycle engine's other paths.
PETERSEN = "".join(f"{i} {(i + 1) % 5}\n{i} {i + 5}\n{5 + i} {5 + (i + 2) % 5}\n"
                   for i in range(5))
# PG(2,2): points 0..6, the Fano plane's lines 7..13
FANO_LINES = [(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 0), (5, 6, 1), (6, 0, 2)]
PG22_INCIDENCE = "".join(f"{p} {7 + i}\n" for i, line in enumerate(FANO_LINES) for p in line)

# case -> (input, family, sha256 of stdout, which --out repeats verbatim)
VERIFY_WITNESS_CASES = {
    # _find_c4: the smallest shared pair (0, 1) with its common neighbors
    # 5 and 6 (witness [5, 0, 6, 1])
    "small-even4": ("small", "even:4",
                    "2c6f14399d92e57e99929b148efa4383805f1e14b96b4018c00499ec937fe7e7"),
    # girth 5, not bipartite, no C4: _even_cycle_meet_in_middle
    "petersen-even6": (PETERSEN, "even:6",
                       "c4a09a83b63afa6d4f85e1fc6395cd969739c05ac516c4c744b9b928c47293fe"),
    # girth 3 under all:5: find_cycle_up_to
    "sparse-all5": ("sparse", "all:5",
                    "4cef605bc74b420ee709ffb13b0c0b21a9d602aca0c6987e15b5df1dd3bc7d43"),
    # bipartite girth 6: the bipartite branch of find_short_even_cycle
    "pg22-even6": (PG22_INCIDENCE, "even:6",
                   "0d013594bf25d795ff73ca042a2cf2c215515bc28d020fc7fa1844494a820c37"),
}


@pytest.mark.parametrize("case", sorted(VERIFY_WITNESS_CASES))
def test_verify_witness_digests(case, small_path, sparse_path, tmp_path):
    source, family, digest = VERIFY_WITNESS_CASES[case]
    path = {"small": small_path, "sparse": sparse_path}.get(source)
    if path is None:
        path = tmp_path / "in.edges"
        path.write_text(source)
    argv = ["verify", "--family", family, "--in", str(path)]
    code, stdout, out = _run(argv, tmp_path / "verify.json")
    assert code == 2
    assert (_sha(stdout), _sha(out)) == (digest, digest)
