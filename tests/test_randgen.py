import random
from collections import Counter

from chorenforce import runner
from chorenforce.model import StateKind, model_to_json
from chorenforce.randgen import RANDOM_RUNS, fuzz, random_case, scripts_for_word, sweep
from chorenforce.validate import validate_cefm
from mutants import wrong_priority


def cases(n, seed=0):
    rng = random.Random(seed)
    return [random_case(rng) for _ in range(n)]


def test_generated_models_validate():
    # the 200 models of acceptance criterion 6
    for case in cases(200, seed=198):
        report = validate_cefm(case.model)
        assert report.ok, str(report)
        assert len(case.model.states) <= 12


def test_feature_mix_appears():
    kinds = set()
    for case in cases(80, seed=3):
        kinds |= {k for k in case.model.states.values()}
    assert StateKind.ALTERNATIVE in kinds
    assert StateKind.LOOP in kinds
    assert StateKind.FORK in kinds


def test_words_cover_language():
    for case in cases(40, seed=1):
        if case.expect == "equality":
            assert set(case.words) == set(case.enactment.language.complete)
        else:
            assert case.words
            for word in case.words:
                assert case.enactment.language.is_prefix(word)


def test_scripts_project_the_word():
    for case in cases(30, seed=2):
        for word in case.words:
            scripts = scripts_for_word(case.model, word)
            # per-initiator projection: concatenating the scripts in word
            # order reproduces the word
            by_role = {s.role: list(s.actions) for s in scripts}
            rebuilt = []
            for label in word:
                initiator, task, receiver = label.split(".")
                action = by_role[initiator].pop(0)
                assert (action.task, action.target) == (task, receiver)
                rebuilt.append(label)
            assert tuple(rebuilt) == word
            assert all(not rest for rest in by_role.values())


def test_directed_runs_agree_with_reference():
    # a light version of the acceptance sweep: a handful of models
    problems = sweep(12, 9).problems
    assert not problems, problems[:5]


def test_sweep_prepares_each_model_once(monkeypatch):
    # decomposition, checker and reference language once per generated
    # model, however many runs it makes
    calls = Counter()

    def counted(name):
        wrapped = getattr(runner, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return wrapped(*args, **kwargs)

        return call

    for name in ("generate_all", "RuntimeChecker", "reference_traces"):
        monkeypatch.setattr(runner, name, counted(name))
    result = sweep(12, 9)
    assert not result.problems, result.problems[:5]
    assert result.runs > 12 * RANDOM_RUNS
    assert calls == {"generate_all": 12, "RuntimeChecker": 12, "reference_traces": 12}


def test_case_is_reproducible():
    a = random_case(random.Random(123))
    b = random_case(random.Random(123))
    assert model_to_json(a.model) == model_to_json(b.model)
    assert a.env == b.env
    assert a.words == b.words


def test_fuzz_catches_a_delegate_that_never_crosses_a_join(monkeypatch):
    # fork cases end with an operation of a branch pair, which only a
    # delegate that crosses the join can forward
    monkeypatch.setattr(runner, "Delegate", wrong_priority())
    assert fuzz(40, 0, False) == 1
