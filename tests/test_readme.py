"""The README's examples print what the README shows: its Python block,
and its two ``$ symsug`` transcripts, the ``compute`` one run on the JSON
document shown above it."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from symsug.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)


def test_the_library_example_prints_its_comments():
    (code,) = [body for kind, body in BLOCKS if kind == "python"]
    # each print's trailing comment starts with the text it prints
    shown = re.findall(r"^print\(.*\)\s+# ([^:]*)", code, re.M)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert shown and out.getvalue().splitlines() == shown


def test_the_command_transcripts_print_what_they_show(tmp_path, monkeypatch):
    transcripts = []
    for index, (kind, body) in enumerate(BLOCKS):
        if body.startswith("$ symsug "):
            command, *printed = body.splitlines()
            transcripts.append((shlex.split(command)[2:], printed, index))
    assert [argv[0] for argv, _, _ in transcripts] == ["compute", "verify"]
    monkeypatch.chdir(tmp_path)
    for argv, printed, index in transcripts:
        if "--input" in argv:
            # the document is the JSON block above the transcript
            document = [body for kind, body in BLOCKS[:index] if kind == "json"][-1]
            (tmp_path / argv[argv.index("--input") + 1]).write_text(document)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        assert out.getvalue().splitlines() == printed
