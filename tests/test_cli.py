import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial

import pytest

from conftest import catalan
from hooklab import (
    BinaryFamily,
    OrderedFamily,
    TbarFamily,
    cli,
    families,
    identities,
    sampler,
    stats,
)
from hooklab.trees import _preorder

CMD = [sys.executable, "-m", "hooklab"]


def run(*args, env=None):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, env=env
    )


@pytest.fixture
def folds(monkeypatch):
    """The fold calls made, by name: the families' ``term_sizes`` and
    ``hook_sizes``, and han2's ``slotted_term_sizes``."""
    calls = []

    def recording(name, fold):
        return lambda *args: calls.append(name) or fold(*args)

    for family in (BinaryFamily, OrderedFamily, TbarFamily):
        for name in ("term_sizes", "hook_sizes"):
            monkeypatch.setattr(family, name, recording(name, getattr(family, name)))
    monkeypatch.setattr(identities, "slotted_term_sizes",
                        recording("slotted_term_sizes", identities.slotted_term_sizes))
    return calls


class TestVerify:
    def test_han_small(self):
        out = run("verify", "han", "--n-max", "3")
        assert out.returncode == 0
        lines = out.stdout.strip().split("\n")
        assert len(lines) == 3
        assert "lhs=1 " in lines[0]
        assert "lhs=1/2" in lines[1]
        assert "lhs=1/6" in lines[2]
        assert all("holds=true" in line for line in lines)

    def test_han_json(self):
        out = run("verify", "han", "--n-max", "3", "--json")
        assert out.returncode == 0
        docs = [json.loads(line) for line in out.stdout.strip().split("\n")]
        assert [d["lhs"] for d in docs] == ["1", "1/2", "1/6"]
        assert all(d["holds"] for d in docs)

    def test_table_and_json_agree(self):
        table = run("verify", "han", "--n-max", "4").stdout.strip().split("\n")
        docs = [
            json.loads(line)
            for line in run("verify", "han", "--n-max", "4", "--json")
            .stdout.strip()
            .split("\n")
        ]
        for line, doc in zip(table, docs):
            fields = dict(pair.split("=", 1) for pair in line.split(" "))
            assert fields["lhs"] == doc["lhs"]
            assert fields["n"] == str(doc["n"])
            assert fields["term_count"] == str(doc["term_count"])
            assert (fields["holds"] == "true") == doc["holds"]

    def test_yang_n1(self):
        out = run("verify", "yang", "--n-max", "1", "--json")
        assert out.returncode == 0
        doc = json.loads(out.stdout.strip())
        assert doc["lhs"] == "1"
        assert doc["holds"]

    def test_tbar_const1(self):
        out = run("verify", "tbar", "--oracle", "const:1", "--n-max", "5", "--json")
        assert out.returncode == 0
        docs = [json.loads(line) for line in out.stdout.strip().split("\n")]
        assert [d["lhs"] for d in docs] == ["1", "1/2", "1/6", "1/24", "1/120"]

    def test_han2(self):
        out = run("verify", "han2", "--n-max", "3", "--json")
        assert out.returncode == 0
        docs = [json.loads(line) for line in out.stdout.strip().split("\n")]
        assert [d["lhs"] for d in docs] == ["1/6", "1/120", "1/5040"]

    def test_lemma_family_sweep(self):
        out = run("verify", "lemma", "--family", "ordered", "--n-max", "4", "--json")
        assert out.returncode == 0
        docs = [json.loads(line) for line in out.stdout.strip().split("\n")]
        assert [d["states"] for d in docs] == [1, 1, 3, 15]
        assert all(d["holds"] for d in docs)

    def test_labelprob_sweep(self):
        out = run("verify", "labelprob", "--family", "binary", "--n-max", "4", "--json")
        assert out.returncode == 0
        docs = [json.loads(line) for line in out.stdout.strip().split("\n")]
        assert [d["labelings"] for d in docs] == [1, 2, 6, 24]
        assert all(d["holds"] for d in docs)

    def test_usage_errors(self):
        assert run("verify", "han", "--oracle", "const:2").returncode == 2
        assert run("verify", "yang", "--m", "3").returncode == 2
        assert run("verify", "lemma", "--family", "binary", "--m", "3").returncode == 2
        assert run("verify", "tbar", "--oracle", "nope:1").returncode == 2
        assert run("verify", "unknown").returncode == 2
        assert run("verify", "han", "--n-max", "0").returncode == 2
        assert run("verify", "han", "--n-max", "-3").returncode == 2
        assert run("verify", "lemma", "--n-max", "0").returncode == 2

    def test_oracle_file_with_a_fractional_count_is_a_usage_error(self, tmp_path):
        path = tmp_path / "oracle.json"
        path.write_text(json.dumps({"": 2.7, "default": "const:2"}))
        out = run("verify", "tbar", "--oracle", f"file:{path}", "--n-max", "3")
        assert out.returncode == 2
        assert out.stdout == ""
        assert "2.7" in out.stderr

    def test_oracle_file_with_an_unreachable_key_is_a_usage_error(self, tmp_path):
        path = tmp_path / "oracle.json"
        path.write_text(json.dumps({"": 2, "7": 3, "default": "const:2"}))
        out = run("verify", "tbar", "--oracle", f"file:{path}", "--n-max", "3")
        assert out.returncode == 2
        assert out.stdout == ""
        assert "'7'" in out.stderr

    def test_oracle_file_with_a_repeated_key_is_a_usage_error(self, tmp_path):
        path = tmp_path / "oracle.json"
        path.write_text('{"": 2, "": 3, "default": "const:2"}')
        out = run("verify", "tbar", "--oracle", f"file:{path}", "--n-max", "3")
        assert out.returncode == 2
        assert out.stdout == ""
        assert "repeats the key ''" in out.stderr

    def test_oracle_file_with_a_non_ascii_byte_is_a_usage_error(self, tmp_path):
        path = tmp_path / "oracle.json"
        path.write_text('{"\u00e9": 3, "default": "const:2"}', encoding="utf-8")
        out = run("verify", "tbar", "--oracle", f"file:{path}", "--n-max", "3")
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.startswith("error: ") and "not ASCII" in out.stderr
        assert str(path) in out.stderr
        assert "Traceback" not in out.stderr

    def test_oracle_file_with_a_huge_integer_is_a_usage_error(self, tmp_path):
        # int() refuses more than 4300 digits; the digits are counted first
        path = tmp_path / "oracle.json"
        path.write_text('{"": ' + "9" * 5000 + ', "default": "const:2"}')
        out = run("verify", "tbar", "--oracle", f"file:{path}", "--n-max", "3")
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.startswith("error: ") and "the bound 1000000" in out.stderr
        assert "Traceback" not in out.stderr

    def test_a_child_count_above_the_bound_is_refused_at_parse_time(self, tmp_path):
        # one past families.COUNT_LIMIT; the bound itself parses
        path = tmp_path / "oracle.json"
        path.write_text(json.dumps({"": 1000001, "default": "const:2"}))
        for oracle in ("const:1000001", f"file:{path}"):
            out = run("verify", "tbar", "--oracle", oracle, "--n-max", "3")
            assert out.returncode == 2, oracle
            assert out.stdout == ""
            assert out.stderr.startswith("error: ") and "1000001" in out.stderr
            assert "above the bound 1000000" in out.stderr
            assert "Traceback" not in out.stderr
        out = run("verify", "tbar", "--oracle", "const:1000000", "--n-max", "1")
        assert out.returncode == 0

    def test_oracle_file_with_a_bad_default_is_a_usage_error(self, tmp_path):
        path = tmp_path / "oracle.json"
        for default in (3, f"file:{path}"):
            path.write_text(json.dumps({"": 2, "default": default}))
            out = run("verify", "tbar", "--oracle", f"file:{path}", "--n-max", "3")
            assert out.returncode == 2
            assert out.stdout == ""
            assert "'default' entry" in out.stderr
            assert "Traceback" not in out.stderr

    def test_n_max_above_the_bound_is_a_usage_error(self, folds, capsys):
        for args, bound in ((("han",), 300), (("han2",), 250), (("yang",), 60),
                            (("tbar", "--oracle", "const:3"), 50),
                            (("lemma", "--family", "tbar"), 7), (("labelprob",), 7)):
            assert cli.main(["verify", *args, "--n-max", str(bound + 1)]) == 2, args
            out, err = capsys.readouterr()
            assert out == ""
            assert err == (f"error: 'verify {args[0]}' is limited to --n-max <= {bound}, "
                           f"got {bound + 1}\n")
        assert folds == []

    def test_a_sweep_makes_one_fold_pass(self, folds, capsys):
        for args, fold in ((("han",), "term_sizes"), (("han2",), "slotted_term_sizes"),
                           (("yang",), "term_sizes"),
                           (("tbar", "--oracle", "depth:2,3"), "term_sizes"),
                           (("lemma",), "hook_sizes"),
                           (("lemma", "--family", "ordered", "--m", "symbolic"), "hook_sizes"),
                           (("labelprob", "--family", "tbar", "--oracle", "const:3"),
                            "hook_sizes")):
            folds.clear()
            assert cli.main(["verify", *args, "--n-max", "5"]) == 0, args
            assert len(capsys.readouterr().out.splitlines()) == 5
            assert folds == [fold], args

    def test_every_sum_to_its_cap_matches_the_closed_forms(self, capsys):
        # past any enumeration's reach: 1/n! (1/(2n+1)! for han2), and as
        # many shapes as there are binary trees on n vertices (Catalan(n)),
        # ordered trees on n vertices (Catalan(n-1)) and subtrees of the
        # complete m-ary tree (the Fuss-Catalan number C(mn, n)/((m-1)n+1))
        catalans = [catalan(n) for n in range(cli.VERIFY["han"][1] + 1)]
        cases = [(("han",), catalans.__getitem__, factorial),
                 (("han2",), catalans.__getitem__, lambda n: factorial(2 * n + 1)),
                 (("yang",), lambda n: catalans[n - 1], factorial)]
        cases += [(("tbar", "--oracle", f"const:{m}"),
                   lambda n, m=m: comb(m * n, n) // ((m - 1) * n + 1), factorial)
                  for m in range(1, 5)]
        for args, shapes, den in cases:
            bound = cli.VERIFY[args[0]][1]
            assert cli.main(["verify", *args, "--n-max", str(bound), "--json"]) == 0, args
            docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
            assert [doc["n"] for doc in docs] == list(range(1, bound + 1)), args
            for n, doc in enumerate(docs, 1):
                assert doc["lhs"] == doc["expected"] == str(Fraction(1, den(n))), (args, n)
                assert doc["holds"] and doc["term_count"] == shapes(n), (args, n)

    def test_a_sum_past_the_term_limit_runs(self, monkeypatch, capsys):
        # const:50 has 3725 subtrees of size 3 and more than 10^6 of size 5;
        # the limit bounds labeled trees, not the sums, whose work grows
        # with n alone
        for limit in (3724, identities.TERM_LIMIT):
            monkeypatch.setattr(identities, "TERM_LIMIT", limit)
            assert cli.main(["verify", "tbar", "--oracle", "const:50", "--n-max", "8"]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert [line.split()[1] for line in lines] == [f"n={n}" for n in range(1, 9)]
            assert all("holds=true" in line for line in lines)
            assert lines[2].endswith(" term_count=3725")

    def test_a_sweep_past_the_term_limit_is_a_usage_error(self, monkeypatch, capsys):
        # binary has n! labeled trees of size n: 24 at n=4, 120 at n=5
        for check, count in (("lemma", "states"), ("labelprob", "labelings")):
            monkeypatch.setattr(identities, "TERM_LIMIT", 24)
            assert cli.main(["verify", check, "--n-max", "5"]) == 2
            out, err = capsys.readouterr()
            assert [line.split()[2] for line in out.splitlines()] == ["n=1", "n=2", "n=3", "n=4"]
            assert f"{count}=24 " in out.splitlines()[-1]
            assert err == "error: more than 24 labeled binary trees at n=5\n"
            monkeypatch.setattr(identities, "TERM_LIMIT", 120)
            assert cli.main(["verify", check, "--n-max", "5"]) == 0
            last = capsys.readouterr().out.splitlines()[-1]
            assert "n=5 " in last and f"{count}=120 " in last

    def test_a_tbar_enumeration_past_the_term_limit_names_the_oracle(self, monkeypatch, capsys):
        # const:3 has 15 labeled trees at n=3 and 105 at n=4
        monkeypatch.setattr(identities, "TERM_LIMIT", 100)
        message = "error: more than 100 labeled tbar trees at n=4 with oracle const:3\n"
        for check in ("lemma", "labelprob"):
            assert cli.main(["verify", check, "--family", "tbar", "--oracle", "const:3",
                             "--n-max", "5"]) == 2
            out, err = capsys.readouterr()
            assert [line.split()[2] for line in out.splitlines()] == ["n=1", "n=2", "n=3"]
            assert err == message
        assert cli.main(["mc", "--family", "tbar", "--oracle", "const:3", "--n", "4"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == message

    def test_a_wrong_weight_at_one_parent_fails_the_lemma(self, monkeypatch, capsys):
        # the sites under (0,) weigh 3/16, not 1/4, so a state whose vertex
        # (0,) has an open slot falls short of 1; from n=2 on some shape has
        # one, every shape is totalled once, and the rule runs once per
        # distinct (parent, c) over the sweep
        real, checked, ruled = BinaryFamily._rule, [], []
        monkeypatch.setattr(BinaryFamily, "_rule", lambda self, parent, c: ruled.append(
            (parent, c)) or real(self, parent, c) * (Fraction(3, 4) if parent == (0,) else 1))
        total = sampler._site_total  # the real one: the patched name would call itself
        monkeypatch.setattr(sampler, "_site_total", lambda family, shape: checked.append(
            shape) or total(family, shape))
        assert cli.main(["verify", "lemma", "--n-max", "4"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"check=lemma family=binary n={n} states={factorial(n)} holds={holds}"
            for n, holds in ((1, "true"), (2, "false"), (3, "false"), (4, "false"))]
        assert len(checked) == sum(catalan(n) for n in range(1, 5))
        assert sorted(shape.enc for shape in checked) == sorted(
            shape.enc for n in range(1, 5) for shape in BinaryFamily().shapes(n))
        assert len(ruled) == len(set(ruled)) == len(
            {(addr, len(node.child_items())) for shape in checked
             for addr, node in _preorder(shape) if len(node.child_items()) < 2})

    def test_a_wrong_vertex_factor_at_one_width_fails_the_sum(self, monkeypatch, capsys):
        # every parent with `width` children in the infinite tree gets its
        # factor's denominator one too big; under depth:2,3 width 2 is the
        # root alone, a parent from n=2 on, and width 3 a vertex below it,
        # a parent from n=3 on
        real = TbarFamily.hook_den
        for width, first_false in ((2, 2), (3, 3)):
            monkeypatch.setattr(TbarFamily, "hook_den", staticmethod(
                lambda w, h, width=width: real(w, h) + (w == width)))
            assert cli.main(["verify", "tbar", "--oracle", "depth:2,3", "--n-max", "4"]) == 1
            holds = [line.split()[-2] for line in capsys.readouterr().out.splitlines()]
            assert holds == [f"holds={str(n < first_false).lower()}" for n in range(1, 5)]

    def test_a_wrong_leaf_factor_fails_han_and_han2(self, monkeypatch, capsys):
        # every leaf's factor is off by one, and from n=2 on the leaves sit
        # below the root; han reads tbar's rule at width 2 and han2 a
        # factor of its own, so each is mutated
        real = TbarFamily.hook_den
        monkeypatch.setattr(TbarFamily, "hook_den", staticmethod(
            lambda width, h: real(width, h) + (h == 1)))
        monkeypatch.setattr(identities, "_han2_den", lambda h: (2 * h + 1) << (2 * h - 1 + (h == 1)))
        for identity in ("han", "han2"):
            assert cli.main(["verify", identity, "--n-max", "3"]) == 1
            out = capsys.readouterr().out
            assert out.count("holds=false") == 3, out

    def test_a_wrong_symbolic_vertex_factor_fails_yang(self, monkeypatch, capsys):
        # in symbolic m, every vertex with a hook of 2 or more gets its
        # factor's denominator one too big, h+1 for h; from n=2 on the root
        # has one
        real = OrderedFamily.hook_factor
        monkeypatch.setattr(OrderedFamily, "hook_factor", lambda self, h: real(self, h)
                            * (Fraction(h, h + 1) if self.m is None and h >= 2 else 1))
        assert cli.main(["verify", "yang", "--n-max", "5"]) == 1
        holds = [line.split()[-2] for line in capsys.readouterr().out.splitlines()]
        assert holds == ["holds=true"] + ["holds=false"] * 4

    def test_a_wrong_binomial_weight_fails_yang(self, monkeypatch, capsys):
        # C(m, 2) doubled: the ways to give a vertex two children count
        # twice; from n=3 on a shape has a vertex with two children
        real = OrderedFamily.binomial
        monkeypatch.setattr(OrderedFamily, "binomial",
                            lambda self, c: real(self, c) * (2 if c == 2 else 1))
        assert cli.main(["verify", "yang", "--n-max", "5"]) == 1
        holds = [line.split()[-2] for line in capsys.readouterr().out.splitlines()]
        assert holds == ["holds=true"] * 2 + ["holds=false"] * 3

    def test_a_wrong_symbolic_weight_at_depth_2_fails_labelprob(self, monkeypatch, capsys):
        # a symbolic site at depth 2 weighs (m - c)/((c + 2) m^2), not
        # (m - c)/((c + 1) m^2); from n=3 on a labeling puts a vertex there
        real = OrderedFamily.weight
        monkeypatch.setattr(OrderedFamily, "weight", lambda self, parent, c: real(self, parent, c)
                            * (Fraction(c + 1, c + 2) if self.m is None and len(parent) == 1
                               else 1))
        assert cli.main(["verify", "labelprob", "--family", "ordered", "--m", "symbolic"]) == 1
        holds = [line.split()[-1] for line in capsys.readouterr().out.splitlines()]
        assert holds == ["holds=true"] * 2 + ["holds=false"] * 3

    def test_lemma_counts_states_without_labeling_a_tree(self, monkeypatch, capsys):
        monkeypatch.setattr(sampler, "_labelings", None)  # enumerate_labelings would need it
        assert cli.main(["verify", "lemma", "--family", "tbar", "--oracle", "const:3",
                         "--n-max", "4"]) == 0
        states = [line.split()[3] for line in capsys.readouterr().out.splitlines()]
        assert states == ["states=1", "states=3", "states=15", "states=105"]

    def test_labelprob_weighs_each_shape_once(self, monkeypatch, capsys):
        # the law is pushed forward on shapes: no labeling is made, and each
        # shape of size below n-max is walked vertex by vertex once
        monkeypatch.setattr(sampler, "_labelings", None)
        walked, real = [], sampler._open_vertices
        monkeypatch.setattr(sampler, "_open_vertices", lambda family, shape:
                            walked.append(shape) or real(family, shape))
        assert cli.main(["verify", "labelprob", "--family", "binary", "--n-max", "5"]) == 0
        fields = [dict(f.split("=") for f in line.split())
                  for line in capsys.readouterr().out.splitlines()]
        assert [r["shapes"] for r in fields] == [str(catalan(n)) for n in range(1, 6)]
        assert [r["labelings"] for r in fields] == [str(factorial(n)) for n in range(1, 6)]
        assert sorted(shape.enc for shape in walked) == sorted(
            shape.enc for n in range(1, 5) for shape in BinaryFamily().shapes(n))

    def test_labelprob_runs_the_chain_s_moves(self, monkeypatch, capsys):
        # an ordered leaf put after the child already in its slot, not before
        # it: the chain lands on the wrong shapes from n=4 on, while every
        # step's masses still sum to 1 and every formula is unchanged
        real = sampler.insert_child

        def insert_after(children, slot, child):
            if any(s == slot for s, _ in children):
                return real(children, slot + 1, child)
            return real(children, slot, child)

        monkeypatch.setattr(sampler, "insert_child", insert_after)
        for m in ("symbolic", "9/2"):
            assert cli.main(["verify", "labelprob", "--family", "ordered", "--m", m,
                             "--n-max", "6"]) == 1
            holds = [line.split()[-1] for line in capsys.readouterr().out.splitlines()]
            assert holds == ["holds=true"] * 3 + ["holds=false"] * 3, m

    def test_a_sweep_makes_the_shapes_of_each_size_once_and_none_past_the_limit(
            self, monkeypatch, capsys):
        # 24 labeled binary trees of size 4, 120 of size 5; 15 and 105 under
        # const:3 at sizes 3 and 4.  The count comes from the hook products,
        # so the refused size makes no shape, and each size below it
        # makes its shapes once
        made = []
        for family in (BinaryFamily, TbarFamily):
            real = family.shapes
            monkeypatch.setattr(family, "shapes", lambda self, n, real=real:
                                made.append(n) or real(self, n))
        cases = ((24, (), "more than 24 labeled binary trees at n=5\n", 4),
                 (100, ("--family", "tbar", "--oracle", "const:3"),
                  "more than 100 labeled tbar trees at n=4 with oracle const:3\n", 3))
        for limit, family_args, message, last in cases:
            monkeypatch.setattr(identities, "TERM_LIMIT", limit)
            for check in ("lemma", "labelprob"):
                made.clear()
                assert cli.main(["verify", check, *family_args, "--n-max", "7"]) == 2
                assert capsys.readouterr().err == "error: " + message
                assert made == list(range(1, last + 1)), (check, family_args)

    def test_labelprob_stops_at_the_term_limit_before_growing(self, monkeypatch, capsys):
        # binary has 4! = 24 labeled trees of size 4 and 120 of size 5: the
        # refusal at n=5 comes before the law is pushed from any shape of size 4
        monkeypatch.setattr(identities, "TERM_LIMIT", 24)
        pushed, real = [], sampler._grown_keys
        monkeypatch.setattr(sampler, "_grown_keys", lambda family, shape:
                            pushed.append(shape.size) or real(family, shape))
        assert cli.main(["verify", "labelprob", "--n-max", "7"]) == 2
        out, err = capsys.readouterr()
        assert [line.split()[2] for line in out.splitlines()] == ["n=1", "n=2", "n=3", "n=4"]
        assert err == "error: more than 24 labeled binary trees at n=5\n"
        # each shape of sizes 1, 2 and 3 is pushed from once, to make the
        # law on sizes 2, 3 and 4: 1 + 2 + 5 shapes
        assert sorted(set(pushed)) == [1, 2, 3]
        assert len(pushed) == sum(catalan(k) for k in range(1, 4)) == 8

    def test_a_wrong_spliced_key_fails_labelprob(self, monkeypatch, capsys):
        # the key of the root's first open slot spliced at the end of the
        # root's subtree, the whole encoding, not at its "(": from n=2 on the
        # law puts mass on an encoding that is no shape and too little on a shape
        real = sampler._grown_keys

        def at_the_end(family, shape):
            for parent, q, keys in real(family, shape):
                if parent == ():
                    (slot, key), *rest = keys
                    keys = [(slot, shape.enc + key), *rest]
                yield parent, q, keys

        monkeypatch.setattr(sampler, "_grown_keys", at_the_end)
        for family_args in (["--family", "binary"], ["--family", "tbar", "--oracle", "const:2"]):
            assert cli.main(["verify", "labelprob", *family_args, "--n-max", "4"]) == 1
            out, err = capsys.readouterr()
            fields = [dict(f.split("=") for f in line.split()) for line in out.splitlines()]
            assert [r["matches_closed_form"] for r in fields] == ["true"] + ["false"] * 3
            assert [r["holds"] for r in fields] == ["true"] + ["false"] * 3
            assert err == ""

    def test_ordered_m_below_the_largest_child_count_is_a_usage_error(self):
        for check, m, n_max, most in (
            ("lemma", "3", "5", 4),
            ("labelprob", "3", "6", 4),
            ("lemma", "1/2", "3", 2),
            ("labelprob", "1/2", "3", 1),
        ):
            out = run("verify", check, "--family", "ordered", "--m", m, "--n-max", n_max)
            assert out.returncode == 2, (check, m, n_max)
            assert out.stdout == ""
            assert f"n={n_max}" in out.stderr and f"m={m}" in out.stderr
            assert f"m >= {most}" in out.stderr
            assert "Traceback" not in out.stderr

    def test_ordered_m_at_the_largest_child_count_still_runs(self):
        out = run("verify", "lemma", "--family", "ordered", "--m", "4", "--n-max", "5")
        assert out.returncode == 0
        assert out.stdout.count("holds=true") == 5

    def test_ordered_m_zero_is_a_usage_error(self):
        for check in ("lemma", "labelprob"):
            out = run("verify", check, "--family", "ordered", "--m", "0", "--n-max", "3")
            assert out.returncode == 2
            assert "m must be nonzero" in out.stderr
            assert "Traceback" not in out.stderr


class TestSample:
    def test_single_vertex(self):
        out = run("sample", "--family", "binary", "--n", "1", "--count", "1", "--seed", "0")
        assert out.returncode == 0
        assert out.stdout == "(:1.,.)\n"

    def test_const1_path(self):
        out = run(
            "sample", "--family", "tbar", "--oracle", "const:1",
            "--n", "3", "--count", "2", "--seed", "9",
        )
        assert out.returncode == 0
        lines = out.stdout.strip().split("\n")
        assert lines == ["(:1[0](:2[0](:3)))"] * 2

    def test_seed_reproducible(self):
        args = ("sample", "--family", "binary", "--n", "4", "--count", "5", "--seed", "7")
        assert run(*args).stdout == run(*args).stdout

    def test_verbose_trajectory(self):
        out = run(
            "sample", "--family", "binary", "--n", "3", "--count", "1",
            "--seed", "1", "--verbose",
        )
        assert out.returncode == 0
        lines = out.stdout.strip().split("\n")
        steps = [line for line in lines if line.startswith("# step")]
        assert len(steps) == 2
        assert all("p=1/" in s for s in steps)
        assert not lines[-1].startswith("#")

    def test_ordered_defaults_m_to_n(self):
        out = run("sample", "--family", "ordered", "--n", "5", "--count", "3", "--seed", "2")
        assert out.returncode == 0
        assert len(out.stdout.strip().split("\n")) == 3

    def test_usage_errors(self):
        assert run("sample", "--family", "binary", "--n", "3", "--m", "4").returncode == 2
        for extra in ((), ("--verbose",)):
            out = run("sample", "--family", "ordered", "--n", "3", "--m", "symbolic", *extra)
            assert out.returncode == 2
            assert out.stdout == ""
            assert "Traceback" not in out.stderr
        assert run("sample", "--family", "ordered", "--n", "9", "--m", "2").returncode == 2
        assert run("sample", "--family", "binary", "--n", "3", "--oracle", "const:2").returncode == 2
        assert run("sample", "--family", "binary", "--n", "0").returncode == 2

    def test_count_below_1_is_a_usage_error(self):
        for count in ("0", "-2"):
            out = run("sample", "--family", "binary", "--n", "3", "--count", count)
            assert out.returncode == 2
            assert "--count" in out.stderr
            assert out.stdout == ""

    def test_one_command_runs_the_weight_rule_once_per_parent_and_count(self, monkeypatch,
                                                                        capsys):
        # the 400 trees of one command grow with one family object, whose
        # memo computes each weight asked for once
        asked, ruled = [], []
        weight, rule = BinaryFamily.weight, BinaryFamily._rule
        monkeypatch.setattr(BinaryFamily, "weight", lambda self, parent, c: asked.append(
            (parent, c)) or weight(self, parent, c))
        monkeypatch.setattr(BinaryFamily, "_rule", lambda self, parent, c: ruled.append(
            (parent, c)) or rule(self, parent, c))
        assert cli.main(["sample", "--n", "24", "--count", "400", "--seed", "1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 400
        assert sorted(ruled) == sorted(set(asked))
        assert len(asked) > 10 * len(ruled)

    def test_a_full_memo_is_cleared_and_the_trees_stay_the_same(self, monkeypatch, capsys):
        # the growth benchmark's three n=24 sample commands at its default
        # seed, with their digests from perfbench/golden.json, under a memo
        # of two weights
        monkeypatch.setattr(families, "WEIGHT_MEMO", 2)
        sizes, real = [], families._Memoized.weight

        def memo_weight(family, parent, c):
            p = real(family, parent, c)
            sizes.append(len(family._weights))
            return p

        monkeypatch.setattr(families._Memoized, "weight", memo_weight)
        for argv, digest in (
            ("--family binary --n 24 --count 400 --seed 2517800461",
             "58f05ca32f1605afebaca4b184f146ea0600034b8b3c503a4bf8440556c07d67"),
            ("--family ordered --m 24 --n 24 --count 100 --seed 1520965325",
             "3d31d22467ac6bccc35e091869475619ac7fc218c54d89ad3ccd99c39910d4ae"),
            ("--family tbar --oracle depth:2,3 --n 24 --count 200 --seed 2595531773",
             "4a9bf47609d8e132c54e5dd32e4e6d8fe60b79a3a09c15b97b75718bbab87b25"),
        ):
            sizes.clear()
            assert cli.main(["sample", *argv.split()]) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
            assert max(sizes) == 2, argv


class TestMc:
    def test_fair_coin(self):
        out = run(
            "mc", "--family", "binary", "--n", "2",
            "--samples", "10000", "--seed", "5", "--json",
        )
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["categories"] == 2
        assert doc["dof"] == 1
        assert doc["N"] == 10000
        assert doc["pass"] is True
        assert doc["min_samples"] == 10

    def test_below_minimum_is_a_usage_error(self):
        out = run("mc", "--family", "binary", "--n", "5", "--samples", "100", "--seed", "1")
        assert out.returncode == 2
        assert "minimum" in out.stderr

    def test_size_below_1_is_a_usage_error(self):
        out = run("mc", "--family", "binary", "--n", "0", "--samples", "1000")
        assert out.returncode == 2
        assert "Traceback" not in out.stderr

    def test_symbolic_m_is_a_usage_error(self):
        out = run("mc", "--family", "ordered", "--m", "symbolic", "--n", "3", "--samples", "1000")
        assert out.returncode == 2
        assert out.stdout == ""
        assert "Traceback" not in out.stderr

    def test_a_size_with_one_labeled_tree_is_a_usage_error(self):
        # chi_squared_gof needs two categories; these used to exit 1 with its ValueError
        for args in (("--n", "1"), ("--family", "tbar", "--oracle", "const:1", "--n", "4")):
            out = run("mc", *args)
            assert out.returncode == 2
            assert out.stdout == ""
            assert "only one labeled" in out.stderr
            assert "Traceback" not in out.stderr

    def test_a_size_past_the_term_limit_is_refused_before_any_tree_is_weighed(
            self, monkeypatch, capsys):
        # const:50 has more than 10^6 labeled trees of size 5; they are
        # counted from the hook products folded by subtree size, so no shape
        # is made, and no labeled tree is built or weighed
        def unreachable(*args):
            raise AssertionError("a shape or a labeled tree was made or weighed")

        monkeypatch.setattr(stats, "shape_probability", unreachable)
        monkeypatch.setattr(sampler, "_labelings", unreachable)
        monkeypatch.setattr(TbarFamily, "shapes", unreachable)
        assert cli.main(["mc", "--family", "tbar", "--oracle", "const:50", "--n", "5"]) == 2
        assert capsys.readouterr() == (
            "", "error: more than 1000000 labeled tbar trees at n=5 with oracle const:50\n")

    def test_a_tbar_size_with_one_labeled_tree_names_the_oracle(self):
        out = run("mc", "--family", "tbar", "--oracle", "const:1", "--n", "4")
        assert out.returncode == 2
        assert "with oracle const:1" in out.stderr

    def test_m_below_n_minus_1_is_a_usage_error(self):
        out = run("mc", "--family", "ordered", "--m", "2", "--n", "4", "--samples", "1000")
        assert out.returncode == 2
        assert "needs m >= 3" in out.stderr
        assert "Traceback" not in out.stderr

    def test_alpha_outside_the_unit_interval_is_a_usage_error(self):
        for alpha in ("2", "0", "-0.5", "nan"):
            out = run("mc", "--family", "binary", "--n", "2", "--samples", "10000",
                      "--alpha", alpha)
            assert out.returncode == 2
            assert "--alpha" in out.stderr
            assert out.stdout == ""

    def test_alpha_one_fails(self):
        out = run(
            "mc", "--family", "binary", "--n", "2",
            "--samples", "10000", "--seed", "5", "--alpha", "1.0",
        )
        assert out.returncode == 1

    def test_reproducible(self):
        args = (
            "mc", "--family", "tbar", "--oracle", "depth:2,3", "--n", "3",
            "--samples", "20000", "--seed", "13", "--json",
        )
        assert run(*args).stdout == run(*args).stdout


class TestCensus:
    def test_n1(self):
        out = run("census", "--n", "1", "--json")
        assert out.returncode == 0
        rows = [json.loads(line) for line in out.stdout.strip().split("\n")]
        assert rows[0]["labelings"] == 2
        assert rows[0]["weight"] == "1/2"
        assert rows[-1] == {"total": "1", "holds": True}

    def test_n2(self):
        out = run("census", "--n", "2", "--json")
        rows = [json.loads(line) for line in out.stdout.strip().split("\n")]
        body, tail = rows[:-1], rows[-1]
        assert len(body) == 2
        assert all(r["labelings"] == 8 and r["weight"] == "1/16" for r in body)
        assert tail["holds"] is True

    def test_n_bound(self):
        assert run("census", "--n", "9").returncode == 2
        assert run("census", "--n", "0").returncode == 2


class TestMain:
    def test_calls_in_one_process_print_what_separate_processes_print(self, capsys):
        # main builds its parser once per process, and a parse leaves it as it was
        argvs = [["verify", "han", "--n-max", "3", "--json"], ["verify", "han", "--n-max", "3"]]
        for argv in argvs:
            assert cli.main(argv) == 0
            assert capsys.readouterr().out == run(*argv).stdout


class TestExitCodeContract:
    def test_no_arguments_is_usage(self):
        assert run().returncode == 2

    def test_json_one_document_per_line(self):
        out = run("verify", "han2", "--n-max", "4", "--json")
        for line in out.stdout.strip().split("\n"):
            json.loads(line)
