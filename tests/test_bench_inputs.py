"""The benchmark's documents stay readable under the input rules.

``perfbench/gen.py`` writes every document a benchmark request reads: one
relabelled ``scomplex-v1`` poset per rung and the ``charfn-v1`` λ sampled
on it.  A stricter rule in ``sposet.io`` that refused one of them would
fail every such request, so each is parsed here through ``io.parse``.
"""
import importlib.util
import random
import sys
from pathlib import Path

import pytest

import sposet
from sposet import io as io_mod
from sposet.charfn import CharFunction
from sposet.poset import SimplicialPoset, validate_stats

_GEN = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"


@pytest.fixture(scope="module")
def gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", _GEN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def ladder(gen):
    return gen.build_ladder(sposet)


def test_every_rung_document_and_lambda_parses(gen, ladder):
    assert set(ladder) == set(gen.RUNGS)
    for rung, entry in ladder.items():
        rng = random.Random(f"bench-inputs:{rung}")
        doc = gen.relabel(rung, ladder, rng)
        S = io_mod.parse(gen.canonical(doc))
        assert isinstance(S, SimplicialPoset), rung
        assert validate_stats(S).f == tuple(entry["f"]), rung
        lam = io_mod.parse(gen.canonical(gen.sample_charfn(doc, entry["n"], rng)))
        assert isinstance(lam, CharFunction) and lam.n == entry["n"], rung
