"""Differential test: text.tokenize against the tokenizer it had before its ASCII path.

ASCII text takes a shortcut (lowercase the whole text, then match [a-z0-9]+);
every other text keeps the match-then-lowercase rule. oracle_summarizer.tokenize
is that rule applied to all text, and the terms must be equal, in order.
"""

from hypothesis import example, given, settings, strategies as st

import oracle_summarizer as oracle
from centroidsumm import tokenize
from helpers import examples

# Letters of both cases, digits, the underscore, punctuation, whitespace and
# control characters, with the ones the ASCII rule must get right drawn often.
ASCII_TRICKY = "aZzA09_ -.,;'\t\n\r\x00\x1b\x7f"
ascii_text = st.text(st.one_of(st.sampled_from(ASCII_TRICKY), st.characters(max_codepoint=0x7F)), max_size=80)

# Characters whose lowercase form or word class differs from ASCII's: a capital
# whose lowercase carries a combining mark, a letter with no one-letter
# uppercase, combining marks from several blocks, fullwidth and other
# non-ASCII digits, a titlecase letter, a ligature and the micro sign.
NON_ASCII = [
    "\u0130", "\u00df",  # İ, ß
    "\u0301", "\u0307", "\u20dd", "\u1ab0", "\ufe20",  # combining marks
    "\uff11", "\uff19", "\u0663",  # fullwidth 1 and 9, Arabic-Indic 3
    "\u01c5", "\ufb01", "\u00b5", "\u03a9", "\u00e9",  # ǅ, ﬁ, µ, Ω, é
]
mixed_text = st.text(
    st.one_of(st.sampled_from(ASCII_TRICKY), st.sampled_from(NON_ASCII), st.characters()), max_size=80
)


@given(ascii_text)
@example("Flood_Warning 2024: RIVER-level x9")
@settings(max_examples=examples(300), deadline=None)
def test_ascii_text_gives_the_reference_terms(text):
    assert text.isascii()
    assert tokenize(text) == oracle.tokenize(text)


@given(mixed_text)
@example("\u0130stanbul Stra\u00dfe cafe\u0301 \uff11\uff12 A_B")
@settings(max_examples=examples(300), deadline=None)
def test_mixed_text_gives_the_reference_terms(text):
    assert tokenize(text) == oracle.tokenize(text)
