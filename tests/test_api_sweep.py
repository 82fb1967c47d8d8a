"""Every public callable of the library, given one malformed argument at a
time, returns or raises a SposetError: never another exception."""
import dataclasses
import importlib
import inspect
import json
import pkgutil

import sposet
from sposet import io, spectral
from sposet.charfn import CharFunction, check
from sposet.classify import classify
from sposet.corpus import corpus
from sposet.errors import SposetError
from sposet.facevec import face_vector_report, identity_report
from sposet.homology import RATIONALS, prime_field, reduced_betti
from sposet.poset import validate_stats

# the command line is tested through its argv; its callables are commands
SKIPPED_MODULES = {"sposet.cli"}
# the raw constructor trusts its caller: its docstring sends callers to
# from_face_lattice and from_facets, which validate
SKIPPED = {"sposet.poset.SimplicialPoset"}
MALFORMED = (None, "x", 1.5)


def _public_callables():
    # (qualified name, callable) for each public callable a module defines,
    # a bound method by the module of the object it is bound to
    found = {}
    for info in pkgutil.iter_modules(sposet.__path__):
        module = importlib.import_module(f"sposet.{info.name}")
        if module.__name__ in SKIPPED_MODULES:
            continue
        for name, obj in vars(module).items():
            owner = getattr(obj, "__self__", obj)
            if (name.startswith("_") or not callable(obj)
                    or getattr(owner, "__module__", None) != module.__name__
                    or inspect.isclass(obj) and issubclass(obj, BaseException)):
                continue
            found[f"{module.__name__}.{name}"] = obj
    return found


def _valid_arguments(tmp_path):
    # valid keyword arguments for every swept callable, defaults included
    S = corpus("boundary_simplex(2)")
    lam = CharFunction(2, {"v1": (1, 0), "v2": (0, 1), "v3": (1, 1)})
    prob = spectral.QuotientProblem(spectral.CONE, S, 2, RATIONALS, lam, (1, 0, 0), (1, 0, 0))
    tables = spectral.solve(prob)
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(io.emit_poset(S)))
    facets = [["v1", "v2"], ["v1", "v3"], ["v2", "v3"]]
    fp2 = prime_field(2)

    def record(value):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}

    return {
        "sposet.charfn.CharFunction": {"n": 2, "assignment": dict(lam.assignment)},
        "sposet.charfn.CharCheckReport": record(check(S, lam, RATIONALS)),
        "sposet.charfn.check": {"S": S, "lam": lam, "coeff": RATIONALS},
        "sposet.charfn.random_q_charfn": {"S": S, "n": 2, "seed": 1, "bound": 3,
                                          "budget": 100},
        "sposet.classify.Classification": record(classify(S, RATIONALS)),
        "sposet.classify.buchsbaum_witnesses": {"S": S, "coeff": RATIONALS, "n": 2},
        "sposet.classify.classify": {"S": S, "coeff": RATIONALS},
        "sposet.corpus.corpus_names": {},
        "sposet.corpus.corpus": {"name": "boundary_simplex(2)"},
        "sposet.errors.shown": {"x": S},
        "sposet.facevec.FaceVectorReport": record(face_vector_report(S, RATIONALS)),
        "sposet.facevec.IdentityReport": record(identity_report(S, RATIONALS)),
        "sposet.facevec.face_vector_report": {"S": S, "coeff": RATIONALS},
        "sposet.facevec.identity_report": {"S": S, "coeff": RATIONALS},
        "sposet.homology.Coefficients": {"kind": fp2.kind, "p": 2},
        "sposet.homology.prime_field": {"p": 2},
        "sposet.homology.parse_coefficients": {"label": "fp:2"},
        "sposet.homology.SnfResult": {"factors": (1,)},
        "sposet.homology.smith_normal_form": {"matrix": [[1, 2], [3, 4]]},
        "sposet.homology.BettiVector": record(reduced_betti(S, RATIONALS)),
        "sposet.homology.reduced_betti": {"S": S, "coeff": RATIONALS, "root": "v1"},
        "sposet.io.dumps_canonical": {"obj": {"a": [1]}},
        "sposet.io.parse": {"source": path.read_text()},
        "sposet.io.parse_path": {"path": str(path)},
        "sposet.io.emit_poset": {"S": S},
        "sposet.io.emit_charfn": {"lam": lam},
        "sposet.poset.SimplexElem": S.element("v1,v2")._asdict(),
        "sposet.poset.PosetStats": record(validate_stats(S)),
        "sposet.poset.is_int": {"value": 3},
        "sposet.poset.is_name": {"value": "v1"},
        "sposet.poset.from_face_lattice": {"elements": list(S.elements()), "n": 2,
                                           "name": "bd"},
        "sposet.poset.from_facets": {"facet_vertex_sets": facets, "name": "bd"},
        "sposet.poset.barycentric": {"S": S},
        "sposet.poset.validate_stats": {"S": S},
        "sposet.spectral.QuotientProblem": {
            "kind": spectral.CONE, "poset": S, "n": 2, "coeff": RATIONALS, "charfn": lam,
            "betti_q": (1, 0, 0), "iota": (1, 0, 0)},
        "sposet.spectral.PageTable": {"cells": {(0, 0): 1}, "n": 2},
        "sposet.spectral.Tables": record(tables),
        "sposet.spectral.VerifyReport": record(spectral.verify(prob, tables)),
        "sposet.spectral.e1_diagonal_hprime_form": {"prob": prob},
        "sposet.spectral.solve": {"prob": prob},
        "sposet.spectral.verify": {"prob": prob, "tables": tables},
    }


def test_every_public_callable_has_valid_arguments(tmp_path):
    # a new public callable joins the sweep below with its valid arguments
    swept = set(_valid_arguments(tmp_path)) | SKIPPED
    assert set(_public_callables()) == swept


def test_public_callables_refuse_malformed_arguments(tmp_path):
    valid = _valid_arguments(tmp_path)
    faults = []
    for qualname, fn in sorted(_public_callables().items()):
        if qualname in SKIPPED:
            continue
        kwargs = valid[qualname]
        assert list(kwargs) == list(inspect.signature(fn).parameters), qualname
        fn(**kwargs)
        for key in kwargs:
            for bad in MALFORMED:
                try:
                    fn(**{**kwargs, key: bad})
                except SposetError:
                    pass
                except Exception as exc:  # anything else is a fault of the library
                    faults.append(f"{qualname}({key}={bad!r}): {type(exc).__name__}: {exc}")
    assert faults == []
