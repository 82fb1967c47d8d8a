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

from oracles import antipodal_cross, staircase_product

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

# S^1 x S^2, n = 4: the reports where a page-3 differential fires
S1XS2 = {
    "format": "scomplex-v1",
    "name": "S1xS2",
    "facets": staircase_product(
        [f.vertices for f in corpus("boundary_simplex(2)").by_rank(2)],
        [f.vertices for f in corpus("boundary_simplex(3)").by_rank(3)]),
}

# RP^3, a poset but no complex, n = 4: page three fires over F_2 alone
RP3 = io_mod.emit_poset(antipodal_cross(4))

# T^3 as three triangle boundaries, n = 4: page three fires over every field
TRIANGLE = [f.vertices for f in corpus("boundary_simplex(2)").by_rank(2)]
T3 = {
    "format": "scomplex-v1",
    "name": "T3",
    "facets": staircase_product(staircase_product(TRIANGLE, TRIANGLE), TRIANGLE),
}

CASES = {
    "cone_torus7_q": (
        ["quotient", "cone", "--corpus", "torus7", "--n", "3", "--field", "q", "--json"],
        "a9f6ae62f15fe6c51d948f3a1f8555016912619e212cb373c6b81a7bb12a7910",
    ),
    "cone_torus7_f2": (
        ["quotient", "cone", "--corpus", "torus7", "--n", "3", "--field", "fp:2", "--json"],
        "fbda71d742dfeef32581b0c20810537c6f4b9f93be248b1bdf46b0cccb8ab8c6",
    ),
    "cone_torus7_q_charfn": (
        ["quotient", "cone", "--corpus", "torus7", "--n", "3", "--field", "q",
         "--charfn", "{lambda}", "--json"],
        "18014263a3e269b82141e7ae8196bc9080fd764c574e7227a1a6f31fe3522311",
    ),
    "cone_torus7_q_text": (
        ["quotient", "cone", "--corpus", "torus7", "--n", "3", "--field", "q"],
        "51dce7486dd35fe7bf822f19c9b7dbd3a4cfb34375b30de1a4c440d77b3950e6",
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
        "de49b37415195faf82c31fd9a3383c0420ec1de291561c3eb2293eec7b43dc65",
    ),
    "cone_boundary_simplex4_f3": (
        ["quotient", "cone", "--corpus", "boundary_simplex(4)", "--n", "4",
         "--field", "fp:3", "--json"],
        "f809e3f4e62a969af00bf0ec30545fd0df22a02f0976f096c961ad6157addcfc",
    ),
    "manifold_ball_boundary_simplex3_q": (
        ["quotient", "manifold", "--corpus", "boundary_simplex(3)", "--n", "3",
         "--betti-q", "1,0,0,0", "--iota", "1,0,0,0", "--json"],
        "d2dd06aaba89579966b8b01c79f1ceb8a12f8f9ca99728c1582d56829c9cb8d0",
    ),
    "cone_rp2_q": (
        ["quotient", "cone", "--corpus", "rp2_6", "--n", "3", "--json"],
        "2e10010e6a1cc5f886b03798f1e17b3a8e14e4e7481390ddac2bec5b82c9bab6",
    ),
    "cone_rp2_f2": (
        ["quotient", "cone", "--corpus", "rp2_6", "--n", "3", "--field", "fp:2", "--json"],
        "7424ae608d86f95a283915d3e2c60726f05d0e7f189bff11282c65377a3ee7e7",
    ),
    "cone_s1xs2_q": (
        ["quotient", "cone", "{s1xs2}", "--n", "4", "--json"],
        "f10a6baf6b09e919201948a6fe532ffc03481200426f31eb3c039373ef864540",
    ),
    "cone_s1xs2_f2": (
        ["quotient", "cone", "{s1xs2}", "--n", "4", "--field", "fp:2", "--json"],
        "db05351d0b616074aac4c76aaeb5f45df40ce12dfed767d480239ed2486d346a",
    ),
    "cone_s1xs2_f3": (
        ["quotient", "cone", "{s1xs2}", "--n", "4", "--field", "fp:3", "--json"],
        "8d7969b7091cb787df9f1f808a7df19b23ffe53871104aeca8a99f60dfa2da6d",
    ),
    "cone_rp3_q": (
        ["quotient", "cone", "{rp3}", "--n", "4", "--field", "q", "--json"],
        "ebd2c2793468bef6b1b3da4ef40b09a27cf935d86122f5bf4b745b6c1f26e475",
    ),
    "cone_rp3_f2": (
        ["quotient", "cone", "{rp3}", "--n", "4", "--field", "fp:2", "--json"],
        "0b99fb862ee1348ab40c9763d074c8890c94689baec34122d2aeb4c9cc61780b",
    ),
    "cone_rp3_f3": (
        ["quotient", "cone", "{rp3}", "--n", "4", "--field", "fp:3", "--json"],
        "533756de6f1173c031e6ecfe51fdb791fdf5a920d09f4569b9fb766bc3f1ccae",
    ),
    "cone_t3_q": (
        ["quotient", "cone", "{t3}", "--n", "4", "--field", "q", "--json"],
        "831eb9fa965dd173ce45d9b370480a40ea4f7bf0cb6acc948898c8d75338f522",
    ),
    "cone_t3_f2": (
        ["quotient", "cone", "{t3}", "--n", "4", "--field", "fp:2", "--json"],
        "59a1156684f7530edca665ac75be4a384188f20621c3a2c7777aa126f8b9074a",
    ),
    "cone_t3_f3": (
        ["quotient", "cone", "{t3}", "--n", "4", "--field", "fp:3", "--json"],
        "9f2c0c541c02028f1870f0f5053cf9cb39c898a058ce8bbe940816cdc1e0007b",
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
    s1xs2 = tmp_path / "s1xs2.json"
    s1xs2.write_text(json.dumps(S1XS2))
    rp3 = tmp_path / "rp3.json"
    rp3.write_text(json.dumps(RP3))
    t3 = tmp_path / "t3.json"
    t3.write_text(json.dumps(T3))
    paths = {"lambda": lam, "bundle": bundle, "s1xs2": s1xs2, "rp3": rp3, "t3": t3}
    argv = [a.format(**paths) for a in argv]
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
