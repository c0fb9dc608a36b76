"""Pinned digests of every shipped scenario under every command.

``golden_outputs.json`` holds, for each of the 20 pairs "command scenario"
run with ``--out``, the exit code and one sha256 over the captured stdout,
the captured stderr and every file written under the output directory.
The output directory's path reads ``OUT`` in the captured text, and
``run_manifest.json`` is hashed without ``wall_seconds``, so a digest does
not depend on where or how fast the pair ran.

``scripts/golden_outputs.py`` rewrites the file.  Regenerate it only for an
output changed on purpose, never to hide a defect.
"""
import hashlib
import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from stringsheet.cli import main

GOLDEN_PATH = Path(__file__).resolve().with_name("golden_outputs.json")
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
COMMANDS = ("check", "simulate", "speeds", "compare")
SCENARIOS = ("minkowski_wave", "ori_blowup", "ori_global", "ori_psi_negative", "ori_smooth")


def _file_bytes(path):
    """The bytes of an output file, in chunks; a manifest without its
    ``wall_seconds``."""
    if path.name == "run_manifest.json":
        manifest = json.loads(path.read_text())
        manifest.pop("wall_seconds")
        yield json.dumps(manifest, indent=2, sort_keys=True).encode()
        return
    with open(path, "rb") as fh:
        yield from iter(lambda: fh.read(1 << 20), b"")


def output_digest(stdout, stderr, out_dir):
    digest = hashlib.sha256()
    for text in (stdout, stderr):
        block = text.replace(str(out_dir), "OUT").encode()
        digest.update(b"%d\n" % len(block) + block)
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        name = path.relative_to(out_dir).as_posix().encode()
        file_digest = hashlib.sha256()
        for chunk in _file_bytes(path):
            file_digest.update(chunk)
        digest.update(name + b"\n" + file_digest.digest())
    return digest.hexdigest()


def run_pair(command, name, out_dir):
    """Run ``command`` on the shipped scenario ``name`` in-process with
    ``--out out_dir``: (exit code, stdout, stderr, pin), where the pin is
    the entry of ``golden_outputs.json``.  The output directory is removed
    once digested (``check ori_global`` writes 160 MB)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, str(SCENARIO_DIR / f"{name}.json"), "--out", str(out_dir)])
        pin = {"exit": code, "sha256": output_digest(out.getvalue(), err.getvalue(), out_dir)}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return code, out.getvalue(), err.getvalue(), pin


def pinned(command, name):
    return json.loads(GOLDEN_PATH.read_text())[f"{command} {name}"]
