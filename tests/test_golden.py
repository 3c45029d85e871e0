"""Seeded and symbolic output pinned byte for byte.

The digests below are SHA-256 of the stdout of each command.  The seeded
ones were captured before the sampler's family rules moved onto the family
objects: any change to the site order, the site weights or the u/2^64 draw
rule shows up here as a changed digest.  The n=24 samples and the n=5 mc
gate were captured before the flat integer growth kernel replaced the
per-step tree rebuild; the ordered one prints every site and p, so it pins
the re-keying of later siblings too.  The symbolic ones (yang terms and
sums, ordered labeling masses in m) were captured while rational functions
were still reduced by polynomial gcd, so they pin the rendering of every
value in m that the CLI prints.  The two further tbar sums (the mixed
table oracle, whose addresses the summand reads, and const:3 to n=8) were
captured before the identity sums were folded through the enumerators.
The census tables and the mixed-oracle tbar sums to n=8 were captured
before the tbar node builders were handed child counts instead of addresses
and before the census rows were emitted from their own fields.  The
labeling masses of binary trees, of ordered trees at m=9/2 and of tbar
trees under the mixed table oracle, yang at its CLI cap and an ordered gate
at m=10 were captured while each labeling was still weighed by ranking its
labels and while the kept subtree streams were still filled into lists.
The sums at the CLI caps (han to 12, han2 to 11 in JSON and as a table,
tbar depth:2,3 to 8) were captured while the sums still took one summand
per shape, in encoding order, before they became multisets by subtree size.
"""

import hashlib
import json

import pytest

from conftest import MIXED_ORACLE_TABLE
from hooklab import enum_ordered, yang_term
from hooklab.cli import main

ORACLE = "@mixed"  # replaced by the path of the mixed oracle table file

GOLDEN = [
    (
        "sample-binary",
        "sample --family binary --n 6 --count 3 --seed 7 --verbose",
        "10c44d205ec03d2f2990987212174708c87347e00b6f7c9cf7a99fff6466255f",
    ),
    (
        "sample-ordered-m7",
        "sample --family ordered --m 7 --n 5 --count 3 --seed 7 --verbose",
        "d3dbf867f263ae9ccc0acdfe9223008998bae3f5d177c8271da821402561c41c",
    ),
    (
        "sample-ordered-m9/2",
        "sample --family ordered --m 9/2 --n 5 --count 2 --seed 3 --verbose",
        "4323c917cf03e41ce65603cd591d4a83287c8947b98b8a33f916c2a64bc3f48e",
    ),
    (
        "sample-tbar-mixed",
        "sample --family tbar --oracle @mixed --n 5 --count 3 --seed 7 --verbose",
        "2d2d097d72fb5a057043585b1beb63c75cbf0991d0c5ec50ac3b5d8bb6faa6a3",
    ),
    (
        "mc-binary",
        "mc --family binary --n 3 --samples 3000 --seed 5 --json",
        "3d129c2fa4a9b6c96ae063e9ae6f961d6f71126d9914937843e5ebe3d49a204d",
    ),
    (
        "mc-ordered-m5",
        "mc --family ordered --m 5 --n 3 --samples 3000 --seed 5 --json",
        "653921f65c660b207e6e56b84a535662e9bb9330f41c43a0d67de02ee334223c",
    ),
    (
        "mc-tbar-mixed",
        "mc --family tbar --oracle @mixed --n 3 --samples 3000 --seed 5 --json",
        "2df251aa48cee237e10899936e68fec1124ff85c24cf4deda0b8ad1eeb8ebed5",
    ),
    (
        "sample-binary-n24",
        "sample --family binary --n 24 --count 5 --seed 11",
        "29a44baf85e7ecb8f8f1e1dc6d0758c8829f49ae5382572cadf236b667606c10",
    ),
    (
        "sample-ordered-m24-n24",
        "sample --family ordered --m 24 --n 24 --count 3 --seed 11 --verbose",
        "ce019958bc6641ba0a755f3e9c6b47a252b9db0a5b798622c7abac7b5a654c37",
    ),
    (
        "sample-tbar-depth-n24",
        "sample --family tbar --oracle depth:2,3 --n 24 --count 5 --seed 11",
        "548d038d829d5fe1a10e3667a5209618812b77c1519b8477db7c9dcc3d65b3b2",
    ),
    (
        "mc-binary-n5",
        "mc --family binary --n 5 --samples 6000 --seed 5 --json",
        "fd29aa7a9e4ffe5b9ca7bfc6f44c024673c6f3f47ea30c08354d89e0d5808af0",
    ),
    (
        "verify-yang",
        "verify yang --n-max 7 --json",
        "b4985dccb756fd8cc312bfefb245042eafb9ca1ce820eccce273976c63cde89b",
    ),
    (
        "labelprob-ordered-symbolic",
        "verify labelprob --family ordered --m symbolic --n-max 5",
        "1b45a0ff1fb135aee83fb15bdc9c8b9c960b3bdb38f7a16ecbe54ac41d1a57f9",
    ),
    (
        "verify-han",
        "verify han --n-max 10 --json",
        "f90590dc7287cf4f36e1b97edebdc7616182b5345b401ee350ec4be8a9db8568",
    ),
    (
        "verify-han2",
        "verify han2 --n-max 9 --json",
        "89203a8a96220a49fa9360c95b3bc5cc4d466323d518b25a728a69e07441d0e4",
    ),
    (
        "verify-tbar-depth",
        "verify tbar --oracle depth:2,3 --n-max 7 --json",
        "15a236538e68ce710c32f9ab2aee8082bdc8aeac2d21054e298a8fd6cdad7a9b",
    ),
    (
        "verify-tbar-mixed",
        "verify tbar --oracle @mixed --n-max 7 --json",
        "528d24bbc69b6109a7358d1cbb660f16b5a478f804bb64fd526097d97aeb0525",
    ),
    (
        "verify-tbar-const3",
        "verify tbar --oracle const:3 --n-max 8 --json",
        "faa5c33d3b389b347d5fc3dac905b718297122d6fc49407ab144970620562326",
    ),
    (
        "labelprob-tbar-depth",
        "verify labelprob --family tbar --oracle depth:2,3 --n-max 5 --json",
        "86909558c6cfcf8d30e1416ddfc58c89957c65fbec92acb8a8f10a5799b86fa4",
    ),
    (
        "census-n6",
        "census --n 6",
        "1470b98276a2ef20c93e091e0b4b8bc7fde75e22d5a2c54952e7bbb714971667",
    ),
    (
        "census-n8-json",
        "census --n 8 --json",
        "cded013f9d04c7db6a9a42fef1f6f8e5f59e93969a0a2e53acd9ed0039155d44",
    ),
    (
        "verify-tbar-mixed-n8",
        "verify tbar --oracle @mixed --n-max 8 --json",
        "4836c63ca7d947e1c3e98647bffd7631ca1a11778efdb4642e2b22564fee1619",
    ),
    (
        "labelprob-binary-n7",
        "verify labelprob --family binary --n-max 7 --json",
        "a397b6c9bcbf6441c1ca9c712668f61ba2ab7d12cb8542b84767fb1a6c13a144",
    ),
    (
        "labelprob-ordered-m9/2",
        "verify labelprob --family ordered --m 9/2 --n-max 6 --json",
        "f38d1febca82e39aafb78a7d3db1a5036c27214527aaaf35c2e1feeeb3ba1376",
    ),
    (
        "labelprob-tbar-mixed",
        "verify labelprob --family tbar --oracle @mixed --n-max 6 --json",
        "7c33f6b4ece3c9e7fb9012143e1e565ab7e00174cb8fbc81cfd4323483ff7e16",
    ),
    (
        "verify-yang-n8",
        "verify yang --n-max 8 --json",
        "e068a52bf91ef6d5a74920955a390bd985b83d6cab28ed09a72d09365e7b2592",
    ),
    (
        "mc-ordered-m10-n4",
        "mc --family ordered --m 10 --n 4 --samples 20000 --seed 5 --json",
        "7ecf2015728159d321d08c79f6c18ffa96d3c9fe1e0945cff3e523428850addd",
    ),
    (
        "verify-han-n12",
        "verify han --n-max 12 --json",
        "14dcab35d42ea28cbcff7989d3f2245195a8a0e84a2b121c18f79ca9c52ddd03",
    ),
    (
        "verify-han2-n11",
        "verify han2 --n-max 11 --json",
        "2cbb0c300571d708262923dd7cba6437c85c50298b536ad5c588d893e1b337e1",
    ),
    (
        "verify-han2-n11-table",
        "verify han2 --n-max 11",
        "f2ebf5baf115af9a2ef00ccd37c191e6773ae0ef7b8473ce2c997ff69958d629",
    ),
    (
        "verify-tbar-depth-n8",
        "verify tbar --oracle depth:2,3 --n-max 8 --json",
        "37bddcfa03d852271b51fec87b8f2e71eee9bfedfc4082b9dd566e4a00615044",
    ),
]

# one line str(yang_term(t)) per ordered tree, n = 1..6 in enumeration order
YANG_TERMS = "9e3259baad086fe894a04f715f5656cac946fff93fb8914004759969b9595f39"


@pytest.mark.parametrize(
    "command, digest", [g[1:] for g in GOLDEN], ids=[g[0] for g in GOLDEN]
)
def test_seeded_stdout_is_pinned(command, digest, tmp_path, capsys):
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(MIXED_ORACLE_TABLE))
    argv = [f"file:{path}" if a == ORACLE else a for a in command.split()]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


def test_yang_terms_are_pinned():
    text = "".join(f"{yang_term(t)}\n" for n in range(1, 7) for t in enum_ordered(n))
    assert hashlib.sha256(text.encode()).hexdigest() == YANG_TERMS, text
