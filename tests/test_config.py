"""The shared ``key = value`` config reader, fuzzed through all three
``from_text`` readers."""

import pytest
from hypothesis import given, settings, strategies as st

from roughrenorm.errors import ConfigError
from roughrenorm.gaussian import CovarianceSpec
from roughrenorm.roughsim import SimConfig
from roughrenorm.structure import StructureSpec

KEYS = [
    "d", "alpha_1", "alpha_2", "alpha_3", "truncation", "D1,X2", "X2,X2", "D3,X1",
    "H", "kappa", "N", "P", "seed", "eps", "f", "mollifier", "T", "threads",
    "lambda", "powers", "threds", "", "=",
]
VALUES = st.one_of(
    st.sampled_from(["1", "2", "0", "-3", "1/4", "1/0", "0.3", "1e-3", "9e9999", "x", ""]),
    st.lists(st.sampled_from(["1/8", "1/16", "2", "abc", " "]), max_size=3).map(",".join),
    st.text(alphabet="0123456789/.,-+eE xs_#=", max_size=12),
    st.text(max_size=8),
)
LINES = st.one_of(
    st.tuples(st.sampled_from(KEYS), VALUES).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(max_size=12),
)


@pytest.mark.parametrize("reader", [StructureSpec, CovarianceSpec, SimConfig])
@given(lines=st.lists(LINES, max_size=12))
@settings(max_examples=150, deadline=None)
def test_readers_raise_only_config_error(reader, lines):
    try:
        reader.from_text("\n".join(lines))
    except ConfigError:
        pass
