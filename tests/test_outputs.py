"""Byte-exact outputs of every sub-command but ``verify`` over a fixed corpus.

Each sub-command has one SHA-256 digest of (argv, exit code, stdout, stderr)
over its in-process calls on small Gr, SG and OG spaces: both components of
the maximal OG(3,6), the second special class of type D, ``--json`` and
``--certify``, and every degree p from -1 to the special-class bound + 1.
A change meant to keep every output as it is keeps these digests; a change
that alters an output on purpose says which in CHANGES.md and records the
new digest here.  One more digest, ``choices``, covers ``pieri`` (with and
without ``--json``, and with ``--tilde`` where the second class exists) and
``diagram`` under fixed ``--chat`` and ``--pivot`` values, two at each pair
and degree of the isotropic spaces: the refusals, by message, and the
values that a choice leaves as they are.
"""

import contextlib
import hashlib
import io

import pytest

from eqpieri.cli import main
from eqpieri.schubert import Space, enumerate_symbols, pieri_bound

SPACES = (Space("A", 2, 4), Space("C", 2, 3), Space("B", 2, 3), Space("D", 2, 4),
          Space("D", 3, 3))
BAD_SYMBOLS = ("", "0,1", "2,1", "1,2,3", "x")
FLAG_CYCLE = ((), ("--json",), ("--certify",), ("--json", "--certify"))
CHATS = tuple(("--chat", c) for c in ("1", "2", "3", "4", "5", "9"))
PIVOTS = tuple(("--pivot", c) for c in ("1", "1,2", "2,3", "3", "7", "2,2", "", "1,2,3"))


def _text(sym):
    return ",".join(map(str, sym))


def _flags(space):
    return ["--type", space.lie_type, "--n", str(space.n), "--m", str(space.m)]


def _degrees(space):
    return range(-1, pieri_bound(space) + 2)


def _tilde(space, p):
    """--tilde where the second class exists, and one degree past it."""
    return space.lie_type == "D" and p in (space.n - space.m, space.n - space.m + 1)


def _choices(space):
    """The --chat or --pivot values of the space's type, then one of the
    flag the type lacks."""
    return PIVOTS + CHATS[1:2] if space.lie_type == "C" else CHATS + PIVOTS[:1]


def corpus():
    """(sub-command, argv) for every call, in a fixed order."""
    calls = []
    for space in SPACES:
        flags = _flags(space)
        symbols = [_text(s) for s in enumerate_symbols(space)]
        calls += [("enumerate", ["enumerate", *flags]), ("enumerate", ["enumerate", *flags, "--json"])]
        for i, lam in enumerate(symbols + list(BAD_SYMBOLS)):
            for p in _degrees(space):
                calls.append(("restrict", ["restrict", *flags, "--lambda", lam, "--p", str(p),
                                           *FLAG_CYCLE[(i + p) % 2]]))
                expand = ["expand", *flags, "--lambda", lam, "--p", str(p)]
                calls.append(("expand", expand + list(FLAG_CYCLE[(i + p) % 4])))
                if _tilde(space, p):
                    calls.append(("expand", expand + ["--tilde", *FLAG_CYCLE[i % 4]]))
        for i, lam in enumerate(symbols):
            for j, mu in enumerate(symbols + list(BAD_SYMBOLS[:2])):
                pair = [*flags, "--lambda", lam, "--mu", mu]
                for p in _degrees(space):
                    pieri = ["pieri", *pair, "--p", str(p)]
                    calls.append(("pieri", pieri + list(FLAG_CYCLE[(i + j + p) % 4])))
                    if _tilde(space, p):
                        calls.append(("pieri", pieri + ["--tilde", *FLAG_CYCLE[(i + j) % 4]]))
                    calls.append(("diagram", ["diagram", *pair, "--p", str(p)]))
                    # the oracle builds an engine per call: a sample of the pairs
                    if (i + 2 * j + p) % 5 == 0 or i == j:
                        oracle = ["oracle", *pair, "--p", str(p)]
                        calls.append(("oracle", oracle + ["--json"] * ((i + p) % 2)))
                        if _tilde(space, p):
                            calls.append(("oracle", oracle + ["--tilde"]))
                    if space.lie_type == "A" or j >= len(symbols):
                        continue
                    choices = _choices(space)
                    for r in range(2):
                        flag = choices[(i + 2 * j + p + r) % len(choices)]
                        choice = [*pair, "--p", str(p), *flag]
                        calls.append(("choices", ["pieri", *choice] + ["--json"] * r))
                        if _tilde(space, p):
                            calls.append(("choices", ["pieri", *choice, "--tilde"]))
                        calls.append(("choices", ["diagram", *choice]))
    calls += [("enumerate", ["enumerate", "--type", "D", "--n", "1", "--m", "1"]),
              ("enumerate", ["enumerate", "--type", "C", "--n", "2", "--m", "3"])]
    return calls


def call_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digests():
    """sub-command -> (number of calls, hex digest of their outputs)."""
    hashes, counts = {}, {}
    for command, argv in corpus():
        record = repr((argv, *call_main(argv))).encode()
        hashes.setdefault(command, hashlib.sha256()).update(record)
        counts[command] = counts.get(command, 0) + 1
    return {command: (counts[command], h.hexdigest()) for command, h in hashes.items()}


RECORDED = {
    "choices": (30336, "a27e8d3635bcc3ef26bd7cb6963b3195cfbfee56766594c9c357f5f32e2d2e17"),
    "diagram": (7984, "1e0dd43fff04f01e53c228557e163966999731b1fe595166a154437f374c1654"),
    "enumerate": (12, "4c0ea409249c47db2fa1b8463fffde842688f7a57c2f95ee68b8432e40ebfe47"),
    "expand": (674, "bfe18856aaec427c4ff998b15c9b42f3fbc628bed5667e34b17859967af9fd29"),
    "oracle": (2275, "1864ac1e0d5e793435792fdb2701b578148606388c0127dbb9cd5425f8432a17"),
    "pieri": (9392, "1848144d7fdb0ae93f7ef000511028850e4d415af2ecddeef1d676b0dfc1d602"),
    "restrict": (590, "0b647fe60ea387b3689b02fa626c2d3f1294aaa19341a6b6a1e80b43439ed71a"),
}


@pytest.fixture(scope="module")
def measured():
    return digests()


@pytest.mark.parametrize("command", sorted(RECORDED))
def test_sub_command_outputs_are_unchanged(measured, command):
    assert measured[command] == RECORDED[command]


def test_the_corpus_covers_every_sub_command_but_verify(measured):
    assert set(measured) == set(RECORDED) == {
        "pieri", "expand", "restrict", "oracle", "diagram", "enumerate", "choices"}
