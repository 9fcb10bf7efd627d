"""Unit tests for the QSQL tokenizer."""

import pytest

from repro.sql.errors import SQLError
from repro.sql.lexer import EOF, IDENT, KEYWORD, NUMBER, PUNCT, tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)]


def values(text):
    return [t.value for t in tokenize(text)[:-1]]


class TestTokenKinds:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select From WHERE")
        assert [t.kind for t in tokens[:-1]] == [KEYWORD] * 3
        assert [t.value for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]

    def test_identifiers(self):
        tokens = tokenize("co_name address2")
        assert all(t.kind == IDENT for t in tokens[:-1])

    def test_numbers(self):
        assert values("42 3.14") == [42, 3.14]
        assert isinstance(tokenize("42")[0].value, int)
        assert isinstance(tokenize("3.14")[0].value, float)

    def test_negative_number_in_value_context(self):
        tokens = tokenize("x > -5")
        assert tokens[2].kind == NUMBER
        assert tokens[2].value == -5

    def test_strings_with_escapes(self):
        assert values("'acct''g'") == ["acct'g"]
        assert values("'plain'") == ["plain"]
        assert values("''") == [""]

    def test_unterminated_string(self):
        with pytest.raises(SQLError):
            tokenize("'oops")

    def test_operators_longest_first(self):
        assert values("<= >= <> != = < >") == [
            "<=", ">=", "<>", "!=", "=", "<", ">",
        ]

    def test_punctuation(self):
        tokens = tokenize("( ) , . *")
        assert all(t.kind == PUNCT for t in tokens[:-1])

    def test_eof_appended(self):
        assert tokenize("x")[-1].kind == EOF

    def test_unknown_character(self):
        with pytest.raises(SQLError):
            tokenize("x @ y")

    def test_positions_recorded(self):
        tokens = tokenize("SELECT a")
        assert tokens[0].position == 0
        assert tokens[1].position == 7


class TestRealisticQueries:
    def test_full_query_tokenizes(self):
        text = (
            "SELECT co_name FROM customer WHERE employees > 100 AND "
            "QUALITY(employees.source) <> 'estimate' ORDER BY co_name LIMIT 5"
        )
        tokens = tokenize(text)
        assert tokens[-1].kind == EOF
        keyword_values = [t.value for t in tokens if t.kind == KEYWORD]
        assert "QUALITY" in keyword_values
        assert "LIMIT" in keyword_values
