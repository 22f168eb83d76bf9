"""The usage lines of the ``repro.cli`` docstring against its parser."""

import argparse
import re

from repro import cli


def usage_lines():
    """Every ````repro ...```` span of the docstring, on one line."""
    return [" ".join(span.split())
            for span in re.findall(r"``(repro [^`]*)``", cli.__doc__)]


def named_parsers(words):
    """The parsers a line's command words name (``a|b`` names two)."""
    parsers = [cli.build_parser()]
    for word in words:
        parsers = [
            action.choices[name]
            for parser in parsers
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
            for name in word.split("|")
        ]
    return parsers


def test_docstring_usage_names_only_defined_options():
    lines = usage_lines()
    assert len(lines) >= 6, lines
    for line in lines:
        tokens = line.split()[1:]
        words = []
        for token in tokens:
            if not re.fullmatch(r"[a-z|]+", token):
                break
            words.append(token)
        options = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", line))
        parsers = named_parsers(words)
        assert parsers, line
        for parser in parsers:
            defined = {option for action in parser._actions
                       for option in action.option_strings}
            assert options <= defined, (line, sorted(options - defined))
