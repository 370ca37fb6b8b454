"""Negative numbers in exponent form as option values.

argparse reads -1, -1.5 and -.5 as values, but before Python 3.13 it reads
a negative number in exponent form, such as -5e0 or -.5E-3, as an option,
so that the option before it misses its value.  :func:`parse` reads such
numbers as values through argparse's public interface alone.
``su2pair.cli.main`` imports this module only for an argv that may hold
one.
"""

import argparse
import re

_NEGATIVE_EXPONENT_FORM = re.compile(r"-(\d+\.?\d*|\.\d+)[eE][+-]?\d+")


class QuietParser(argparse.ArgumentParser):
    """A parser that writes nothing: its help, usage and errors only raise
    SystemExit."""

    def print_usage(self, file=None):
        pass

    print_help = print_usage

    def exit(self, status=0, message=None):
        raise SystemExit(status)


def parse(argv, build_parser):
    """The arguments of ``argv`` with each negative number in exponent form
    read as a value, as argparse reads -1; None where ``argv`` holds no such
    number, or does not parse so.

    Each such number is given a leading space, with which argparse reads it
    as a value and float() reads the same double, and ``argv`` is parsed by
    ``build_parser(QuietParser)``; string values get their number back.
    Where this does not parse, the caller parses ``argv`` itself, so that
    help and every usage error keep their bytes.
    """
    marked = {" " + a: a for a in argv if _NEGATIVE_EXPONENT_FORM.fullmatch(a)}
    if not marked:
        return None
    parser = build_parser(QuietParser)
    try:
        args = parser.parse_args([" " + a if " " + a in marked else a for a in argv])
    except SystemExit:
        return None
    for name, value in vars(args).items():
        if isinstance(value, list):
            setattr(args, name, [marked.get(v, v) for v in value])
        else:
            setattr(args, name, marked.get(value, value))
    return args
