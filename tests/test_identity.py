"""`tests/identity.py`, the output-identity script, repeats itself in one process."""

import re

import identity


def test_two_cases_print_the_same_lines_twice():
    cases = ["full.ragged.f32", "fwonly.b32.f64"]
    first = identity.lines(cases)
    assert first == identity.lines(cases)
    assert all(re.fullmatch(r"(full\.ragged\.f32|fwonly\.b32\.f64)\.\S+ [0-9a-f]{64}", line)
               for line in first)
    names = [line.split()[0] for line in first]
    assert len(set(names)) == len(names) == 10 + 7
