import pytest

from explora.automata import LassoWord, MultiAutomaton, MultiTransition
from explora.errors import ParseError
from explora.generators import (format_atm, gen_ak, gen_bk, gen_c,
                                gen_fig4, parse_atm)
from explora.games import format_arena, parse_arena, parse_objective
from explora.textio import (format_automaton, format_lasso, parse_automaton,
                            parse_lasso)

from conftest import ATM_CORPUS, automaton_corpus


def test_roundtrip_on_generator_corpus():
    corpus = [gen_ak(2), gen_ak(3), gen_c(), gen_bk(1), gen_bk(2),
              gen_fig4("left"), gen_fig4("right")]
    corpus += automaton_corpus(5, 4, 3, ["a", "b"], "parity", parity=(1, 4))
    corpus += automaton_corpus(6, 2, 3, ["a", "b"], "buchi")
    for a in corpus:
        assert parse_automaton(format_automaton(a)) == a


def test_roundtrip_multi_channel():
    a = MultiAutomaton("m", ("a", "b"), 2, 0, ((1, 2), (0, 1)), frozenset([
        MultiTransition(0, "a", 1, (2, 0)),
        MultiTransition(0, "b", 0, (1, 1)),
        MultiTransition(1, "a", 0, (1, 0)),
        MultiTransition(1, "b", 1, (2, 1)),
    ]))
    assert parse_automaton(format_automaton(a)) == a


def test_parse_error_names_file_and_line():
    with pytest.raises(ParseError) as e:
        parse_automaton("automaton x\nalphabet: a\nstates: one\n", "foo.aut")
    assert e.value.source == "foo.aut"
    assert e.value.line == 3
    assert "integer" in e.value.expected


def test_parse_error_on_missing_header():
    with pytest.raises(ParseError) as e:
        parse_automaton("alphabet: a\n", "bar.aut")
    assert e.value.line == 1


def test_bad_transition_arity():
    text = "automaton x\nalphabet: a\nstates: 1\ninitial: 0\ncondition: buchi\nt 0 a\n"
    with pytest.raises(ParseError) as e:
        parse_automaton(text)
    assert e.value.line == 6


@pytest.mark.parametrize("count", ["0", "-1"])
def test_channel_count_must_be_positive(count):
    # with -1 channels, `t 0 a` once had the arity of a transition line
    text = f"automaton m\nalphabet: a\nstates: 1\ninitial: 0\nchannels: {count}\nt 0 a\n"
    with pytest.raises(ParseError) as e:
        parse_automaton(text)
    assert e.value.line == 5
    arena = f"arena\npositions: 1\ninitial: 0\nchannels: {count}\nowner: 0\ne 0 0\n"
    with pytest.raises(ParseError) as e:
        parse_arena(arena + "objective: p0\n")
    assert e.value.line == 4


def test_lasso_syntax():
    w = parse_lasso("ab(ba)")
    assert w == LassoWord.of("ab", "ba")
    assert format_lasso(w) == "ab(ba)"
    assert parse_lasso("(a)") == LassoWord.of("", "a")
    with pytest.raises(ParseError):
        parse_lasso("ab")
    with pytest.raises(ParseError):
        parse_lasso("ab()")


def test_atm_roundtrip():
    for name, machine, _, _ in ATM_CORPUS:
        assert parse_atm(format_atm(machine)) == machine


def test_atm_parse_error():
    with pytest.raises(ParseError):
        parse_atm("atm\nstates: 2\nexistential: 0\naccepting: 1\nspace: 1\nt 0 0 1\n")


def test_arena_roundtrip():
    from explora.games import Arena
    arena = Arena(
        owner=(0, 1),
        edges=(((1, (2, 1)), (0, (1, 1))), ((0, (1, 2)),)),
        initial=0,
        channels=((1, 2), (1, 2)),
    )
    obj = parse_objective("or p0 not p1")
    text = format_arena(arena, obj)
    arena2, obj2 = parse_arena(text)
    assert arena2 == arena
    assert obj2 == obj


def test_objective_parse_errors():
    with pytest.raises(ParseError):
        parse_objective("and p0")
    with pytest.raises(ParseError):
        parse_objective("p0 p1")
    with pytest.raises(ParseError):
        parse_objective("maybe p0")
