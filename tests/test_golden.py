"""Golden digests of quotient reports, characteristic-function output and
the per-poset JSON reports (stats, homology, fvec, classify, identities),
and a check that each text report shows every JSON value.

Each case runs one ``sposet`` command and compares the sha256 of its stdout with a digest recorded from a
known-good build, so any change to a table, a check, a skip reason, a
verdict or the canonical encoding shows up here.
"""
import hashlib
import json

import pytest

from sposet import io as io_mod
from sposet.cli import main
from sposet.corpus import corpus

TORUS7_LAMBDA = {
    "format": "charfn-v1",
    "n": 3,
    "assignment": {
        "v1": [-1, 2, -2], "v2": [0, -2, 1], "v3": [1, 1, 1], "v4": [-1, -2, 1],
        "v5": [-2, 1, 1], "v6": [2, -2, 1], "v7": [0, -1, 2],
    },
}

SOLID_TORUS_BUNDLE = {
    "format": "manifold-v1",
    "n": 3,
    "field": "q",
    "bettiQ": [1, 1, 0, 0],
    "iota": [1, 1, 0, 0],
    "orientable": True,
    "charfn": None,
}

CASES = {
    "cone_torus7_q": (
        ["quotient", "cone", "--corpus", "torus7", "--n", "3", "--field", "q", "--json"],
        "98b53dca0d67500fb5032e7542d32751d7e0a76fb9cbfaf100f7fb77fca5cbfe",
    ),
    "cone_torus7_f2": (
        ["quotient", "cone", "--corpus", "torus7", "--n", "3", "--field", "fp:2", "--json"],
        "f2e52beafdfa2dd6ee8c9ef003c7c24dc667e13f1e91b59784dad13946c14134",
    ),
    "cone_torus7_q_charfn": (
        ["quotient", "cone", "--corpus", "torus7", "--n", "3", "--field", "q",
         "--charfn", "{lambda}", "--json"],
        "d04ce50e5cc6168f6d47a56bedae2434e84548414f78fa45a016a055294453d2",
    ),
    "cone_torus7_q_text": (
        ["quotient", "cone", "--corpus", "torus7", "--n", "3", "--field", "q"],
        "3a17200e0458d5a901b9de9af5518aeead025661008e4e314ee72c07cf75fcff",
    ),
    "manifold_solid_torus_bundle": (
        ["quotient", "manifold", "{bundle}", "--json"],
        "7fcefa78b50b7e577855df7847dec72572b82e752a299b3d2c15c5741c92392c",
    ),
    "manifold_torus7_f2": (
        ["quotient", "manifold", "--corpus", "torus7", "--n", "3", "--field", "fp:2",
         "--betti-q", "1,1,0,0", "--iota", "1,1,0,0", "--json"],
        "0d09e0aec4173b32d5e22747fe28014f6a9364407b6ba150a4c67e2ffa012fdb",
    ),
    "cone_boundary_simplex3_q": (
        ["quotient", "cone", "--corpus", "boundary_simplex(3)", "--n", "3", "--json"],
        "d57e0729df8cbcfe7f5b6f651943cb32ee9af5d514facc76032a12cd601c5de4",
    ),
    "cone_boundary_simplex4_f3": (
        ["quotient", "cone", "--corpus", "boundary_simplex(4)", "--n", "4",
         "--field", "fp:3", "--json"],
        "f0d0bec8c5caced00d4f3f8ff8e475ac462280e2f44d50c7769fdb772d40b13e",
    ),
    "manifold_ball_boundary_simplex3_q": (
        ["quotient", "manifold", "--corpus", "boundary_simplex(3)", "--n", "3",
         "--betti-q", "1,0,0,0", "--iota", "1,0,0,0", "--json"],
        "d2dd06aaba89579966b8b01c79f1ceb8a12f8f9ca99728c1582d56829c9cb8d0",
    ),
    "cone_rp2_q": (
        ["quotient", "cone", "--corpus", "rp2_6", "--n", "3", "--json"],
        "dd023776808fb8d9aa5ccdb2571c488999a4ce217259202cef31019f6a58b18f",
    ),
    "cone_rp2_f2": (
        ["quotient", "cone", "--corpus", "rp2_6", "--n", "3", "--field", "fp:2", "--json"],
        "a46882cb2817df57936267a189d2d199bdcabe22e0750140796d0839bf4c7540",
    ),
}


# (argv, exit code, digest): a check that finds a failing face exits 1
CHARFN_CASES = {
    "check_torus7_z": (
        ["charfn", "check", "{lambda}", "--corpus", "torus7", "--coeff", "z", "--json"], 1,
        "da9b664acc895ef97722c927343bdfe280d00418e4c4ebfb78b78bb96609d858",
    ),
    "check_torus7_q": (
        ["charfn", "check", "{lambda}", "--corpus", "torus7", "--coeff", "q", "--json"], 0,
        "76e22e40019fac195463ca0714fa5c416eb88fe776a74fa4dcb5e38605debadb",
    ),
    "check_torus7_f2": (
        ["charfn", "check", "{lambda}", "--corpus", "torus7", "--coeff", "fp:2", "--json"], 1,
        "cc11dafa51c1e3a58ddf0761e98e7feb65d4cce255d116ab203e13f415dced9b",
    ),
    "random_torus7": (
        ["charfn", "random", "--corpus", "torus7", "--n", "3", "--seed", "1",
         "--bound", "5"], 0,
        "70e5946824a1841c1aa2cd08794c4f46c3b59e7d7482048781b909baa5b1f97f",
    ),
}


# --json reports of the per-poset commands, all exiting 0
POSET_CASES = {
    "stats_torus7": (
        ["stats", "--corpus", "torus7", "--json"],
        "bc563d4209e0b9708f0e9ce745561b371c1c8adde685cfa69cbf10f062725d6c",
    ),
    "homology_torus7": (
        ["homology", "--corpus", "torus7", "--json"],
        "61bd27430bbf725b381d93d5fec800513705ef34e5f54a9b252519d37a3e50af",
    ),
    "fvec_torus7": (
        ["fvec", "--corpus", "torus7", "--json"],
        "588acb76e203acf6b6bffc982f36414ecf95a5606a13324dcf6675c2a3309a21",
    ),
    "classify_torus7": (
        ["classify", "--corpus", "torus7", "--json"],
        "ba89376cc1ae5ed6ac22acef74c72a15a27573de1fd9a54c821c54505a3492f4",
    ),
    "identities_torus7": (
        ["identities", "--corpus", "torus7", "--json"],
        "d5dcaa5322302b1f7dfa3a54af96e3c662b8f7bc48dd38ae81ed244ebc8ad643",
    ),
    "homology_rp2_z": (
        ["homology", "--corpus", "rp2_6", "--coeff", "z", "--json"],
        "893909c26ac263a58a19fced0c5d0705316225c486c962b842019830f03ac0c8",
    ),
    "homology_rp2_f2": (
        ["homology", "--corpus", "rp2_6", "--coeff", "fp:2", "--json"],
        "985dc85f221c5de982c61615ba6a17730bfa096cc6136d355d20dc1f7aabb201",
    ),
    "fvec_rp2_f2": (
        ["fvec", "--corpus", "rp2_6", "--field", "fp:2", "--json"],
        "814465a527d85cfa05743886b9e7d31cc6df54e072123717a52716e6990e142e",
    ),
    "classify_rp2_f2": (
        ["classify", "--corpus", "rp2_6", "--field", "fp:2", "--json"],
        "54d294dfb613a26816ca3975d96197c7310b88c0c78369e7ee41d12ac9c9ea58",
    ),
    "identities_rp2_f2": (
        ["identities", "--corpus", "rp2_6", "--field", "fp:2", "--json"],
        "337f85a02034e39792a9ec04184b0cab32d2e1eb30658ae0e5d3ad9ae94ac9a7",
    ),
    "stats_two_arc_circle": (
        ["stats", "--corpus", "two_arc_circle", "--json"],
        "bee6c977d6cea99cdd0914f604df392b7187a00c9c0c2777dd95bba03096f7b9",
    ),
    "homology_two_arc_circle_z": (
        ["homology", "--corpus", "two_arc_circle", "--coeff", "z", "--json"],
        "a1af7298015cd91e7e05e81f07d2753251c4767c38dc7766f82f70798a32b9db",
    ),
    "fvec_two_arc_circle": (
        ["fvec", "--corpus", "two_arc_circle", "--json"],
        "324897202fe4932740a95b288bd538d6bb8a6899487e1e2ad986f44379617677",
    ),
    "classify_two_arc_circle": (
        ["classify", "--corpus", "two_arc_circle", "--json"],
        "426a973efce0bac74fd3db1704cbc82d2394a16ccabede183df164c4e102bc6f",
    ),
    "identities_two_arc_circle": (
        ["identities", "--corpus", "two_arc_circle", "--json"],
        "65f9910ec43ad2a1add798ddf656cccb90538d0c7825dd43a89067afcd2690e6",
    ),
    "stats_triangle_2gon": (
        ["stats", "--corpus", "triangle_2gon", "--json"],
        "15e8c80a6c1553bd1d360d0e407db266278a76a6925e75742825be1f82847185",
    ),
    "homology_triangle_2gon_z": (
        ["homology", "--corpus", "triangle_2gon", "--coeff", "z", "--json"],
        "5969d5bf6c2c2c1df70e56fb4f2221dc8bbfb804a4b0897dc7e7d3b582ccc4ee",
    ),
    "fvec_triangle_2gon": (
        ["fvec", "--corpus", "triangle_2gon", "--json"],
        "1772643577910e3f5fbd4dfff8566ff779200d15795dbfce283d9b77d430e32a",
    ),
    "classify_triangle_2gon": (
        ["classify", "--corpus", "triangle_2gon", "--json"],
        "caf4c8f2a6b8a58b2f2f8aa816a83d4f49c09c3a874b2d4b7b5401f4fcc0424e",
    ),
    "identities_triangle_2gon": (
        ["identities", "--corpus", "triangle_2gon", "--json"],
        "83d940380cf15b9de5489509c0a2dd0ed91fb8cc6ba5b4b3e68be550760b2094",
    ),
}


def _output(argv, tmp_path, capsys):
    lam = tmp_path / "lambda.json"
    lam.write_text(json.dumps(TORUS7_LAMBDA))
    bundle = tmp_path / "bundle.json"
    bundle.write_text(
        json.dumps({**SOLID_TORUS_BUNDLE, "poset": io_mod.emit_poset(corpus("torus7"))})
    )
    argv = [a.format(**{"lambda": lam, "bundle": bundle}) for a in argv]
    code = main(argv)
    return code, capsys.readouterr().out


def _run(argv, tmp_path, capsys):
    code, out = _output(argv, tmp_path, capsys)
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_digest(case, tmp_path, capsys):
    argv, digest = CASES[case]
    assert _run(argv, tmp_path, capsys) == (0, digest)


@pytest.mark.parametrize("case", sorted(CHARFN_CASES))
def test_charfn_digest(case, tmp_path, capsys):
    argv, code, digest = CHARFN_CASES[case]
    assert _run(argv, tmp_path, capsys) == (code, digest)


@pytest.mark.parametrize("case", sorted(POSET_CASES))
def test_poset_report_digest(case, tmp_path, capsys):
    argv, digest = POSET_CASES[case]
    assert _run(argv, tmp_path, capsys) == (0, digest)


def _leaves(value):
    # every key and scalar of a JSON value
    if isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _leaves(item)
    elif isinstance(value, list):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


# every report with a text form: the golden --json cases of the six
# per-poset commands and of the quotient reports
TEXT_CASES = {**{case: argv for case, (argv, _) in POSET_CASES.items()},
              **{case: argv for case, (argv, _, _) in CHARFN_CASES.items()
                 if argv[:2] == ["charfn", "check"]},
              **{case: argv for case, (argv, _) in CASES.items() if "--json" in argv}}


@pytest.mark.parametrize("case", sorted(TEXT_CASES))
def test_text_report_shows_every_json_leaf(case, tmp_path, capsys):
    argv = TEXT_CASES[case]
    json_code, out = _output(argv, tmp_path, capsys)
    text_code, text = _output([a for a in argv if a != "--json"], tmp_path, capsys)
    assert text_code == json_code
    for leaf in _leaves(json.loads(out)):
        assert (leaf if isinstance(leaf, str) else json.dumps(leaf)) in text, leaf
