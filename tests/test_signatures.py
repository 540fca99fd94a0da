"""No public call takes an algebra beside an element: an element carries its own."""

import importlib
import inspect
import pkgutil
import typing
from typing import Sequence

import ncorlicz
from ncorlicz import AlgebraElement, TracedAlgebra


def _mentioned(hint) -> set:
    """The classes a type hint names, inside tuples, sequences and unions too."""
    if isinstance(hint, list):  # the parameters of a Callable
        return set().union(*map(_mentioned, hint))
    return {hint} | set().union(*map(_mentioned, typing.get_args(hint)))


def _takes_both(func) -> bool:
    hints = typing.get_type_hints(func)
    hints.pop("return", None)
    named = set().union(*map(_mentioned, hints.values()))
    return {TracedAlgebra, AlgebraElement} <= named


def _public_calls():
    """(qualified name, function) of every public function and method of the package."""
    for info in pkgutil.iter_modules(ncorlicz.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"ncorlicz.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{info.name}.{name}.{attr}", member


def test_no_public_call_takes_an_algebra_beside_an_element():
    assert [name for name, func in _public_calls() if _takes_both(func)] == []


def test_the_guard_sees_both_kinds_of_argument():
    def two_arguments(alg: TracedAlgebra, a: AlgebraElement) -> complex: ...

    def nested(triples: Sequence[tuple[TracedAlgebra, AlgebraElement]]) -> list: ...

    def a_draw(alg: TracedAlgebra, rng: object) -> AlgebraElement: ...

    def a_pair(f: AlgebraElement, g: AlgebraElement) -> TracedAlgebra: ...

    assert _takes_both(two_arguments) and _takes_both(nested)
    assert not _takes_both(a_draw) and not _takes_both(a_pair)
    names = [name for name, _ in _public_calls()]
    assert "algebra.trace" in names and "rearrangement.StepForm.evaluate_many" in names
