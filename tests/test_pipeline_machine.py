"""One state machine over a finished fixture work directory.

Each example copies a work directory that the fixture pipeline finished
once, then runs ``score``, ``evaluate``, ``sweep`` and ``report`` in process
through ``cli.main`` with drawn settings and inputs, between drawn damage to
one artifact: truncated, one byte flipped, or deleted. After every command
the failure contract of :mod:`riskrel.cli` holds:

- a command exits 0 and prints nothing on stderr, or exits 1 and prints
  exactly one ``error: <Kind>: <detail>`` line; no exception escapes
  ``main``;
- a failed command leaves the SHA-256 of every file, and every directory,
  of the tree as it was;
- re-running the last successful command over the tree it left exits 0 and
  writes the same bytes.
"""

import contextlib
import hashlib
import io
import itertools
import math
import re
import shutil

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule, \
    run_state_machine_as_test

from riskrel import cli, synthetic

FIRMS = tuple(sorted(synthetic.FIRM_THEMES))
_ERROR_LINE = re.compile(r"error: [A-Za-z]\w*: [^\n]*\n")

# Thresholds are whole hundredths in [0, 1]; the rest are outside the rule.
_THRESHOLDS = st.one_of(st.integers(0, 100).map(lambda k: k / 100),
                        st.sampled_from([0.125, 1.5, math.nan, -0.0]))


@st.composite
def _valid_grids(draw):
    lo = draw(st.integers(0, 100))
    hi = draw(st.integers(lo, 100))
    return f"{lo / 100}:{hi / 100}:{draw(st.integers(1, 100)) / 100}"


# An infinite or zero step, a stop below the start, and a third decimal.
_GRIDS = st.one_of(_valid_grids(), st.sampled_from(
    ["0.6:0.9:inf", "0.6:0.9:0", "0.9:0.6:0.05", "0.605:0.9:0.05"]))
_SUBSETS = st.none() | st.frozensets(st.sampled_from(FIRMS))


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """The fixture's manifest, and a work directory of the README's outputs
    from one short training. The fixture holds one year of filings, 160
    paragraphs, so that a score at threshold 0 writes 1.7 MB of evidence,
    not 15 MB: the failure contract does not depend on the corpus size."""
    manifest = synthetic.write_fixture(tmp_path_factory.mktemp("fixture"), years=(2023,))
    work, side = tmp_path_factory.mktemp("finished"), tmp_path_factory.mktemp("training")
    model, paragraphs = str(work / "model.bin"), str(work / "paragraphs.jsonl")
    prices = ["--prices", str(manifest.prices_dir)]
    steps = [
        ["ingest", "--root", str(manifest.filings_dir), "--out", paragraphs],
        ["pairs", "--in", paragraphs, "--seed", "7", "--train", "40", "--val", "10",
         "--out", str(side / "pairs")],
        ["train", "--pairs", str(side / "pairs"), "--seed", "0", "--max-epochs", "3",
         "--out", model],
        ["score", "--model", model, "--paragraphs", paragraphs,
         "--out-matrix", str(work / "rrs.csv"), "--out-evidence", str(work / "evidence")],
        ["evaluate", "--rrs", str(work / "rrs.csv"), *prices,
         "--gics", str(manifest.gics_path), "--out", str(work / "eval")],
        ["sweep", "--model", model, "--paragraphs", paragraphs, *prices,
         "--out", str(work / "sweep.csv")],
        ["report", "--workdir", str(work)],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in steps:
            assert cli.main(argv) == 0, argv[0]
    return manifest, work


def _tree(root):
    """Each file's SHA-256, and each directory as None, by path under ``root``."""
    return {path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
            for path in sorted(root.rglob("*"))}


class PipelineMachine(RuleBasedStateMachine):
    def __init__(self, finished, manifest, root):
        super().__init__()
        self.root, self.manifest = root, manifest
        self.work, self.inputs = root / "work", root / "inputs"
        shutil.copytree(finished, self.work)
        self.inputs.mkdir()
        self.last = None  # the argv of the last successful command, and the tree it left

    def teardown(self):
        shutil.rmtree(self.root)

    def _run(self, argv):
        before = _tree(self.work)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        after = _tree(self.work)
        if code == 0:
            assert err.getvalue() == ""
            self.last = (argv, after)
        else:
            assert code == 1 and _ERROR_LINE.fullmatch(err.getvalue()), (code, err.getvalue())
            assert after == before, f"failed {argv[0]} changed the tree"
        return code

    def _paragraphs(self, firms):
        """The work directory's paragraphs, or those of ``firms`` only."""
        if firms is None:
            return str(self.work / "paragraphs.jsonl")
        path = self.inputs / f"paragraphs-{'-'.join(sorted(firms))}.jsonl"
        source = self.work / "paragraphs.jsonl"
        lines = source.read_bytes().splitlines(True) if source.is_file() else []
        path.write_bytes(b"".join(line for line in lines
                                  if any(f'"firm": "{firm}"'.encode() in line
                                         for firm in firms)))
        return str(path)

    def _prices(self, firms):
        """The fixture's price directory, or one holding ``firms``' files only."""
        if firms is None:
            return str(self.manifest.prices_dir)
        path = self.inputs / f"prices-{'-'.join(sorted(firms))}"
        if not path.is_dir():
            path.mkdir()
            for firm in firms:
                shutil.copy(self.manifest.prices_dir / f"{firm}.csv", path)
        return str(path)

    @rule(threshold=_THRESHOLDS, evidence=st.booleans(), firms=_SUBSETS)
    def score(self, threshold, evidence, firms):
        argv = ["score", "--model", str(self.work / "model.bin"),
                "--paragraphs", self._paragraphs(firms), "--threshold", repr(threshold),
                "--out-matrix", str(self.work / "rrs.csv")]
        self._run(argv + (["--out-evidence", str(self.work / "evidence")] if evidence else []))

    @rule(firms=_SUBSETS)
    def evaluate(self, firms):
        self._run(["evaluate", "--rrs", str(self.work / "rrs.csv"),
                   "--prices", self._prices(firms), "--gics", str(self.manifest.gics_path),
                   "--out", str(self.work / "eval")])

    @rule(grid=_GRIDS, prices=st.booleans())
    def sweep(self, grid, prices):
        argv = ["sweep", "--model", str(self.work / "model.bin"),
                "--paragraphs", str(self.work / "paragraphs.jsonl"), "--grid", grid,
                "--out", str(self.work / "sweep.csv")]
        self._run(argv + (["--prices", self._prices(None)] if prices else []))

    @rule()
    def report(self):
        self._run(["report", "--workdir", str(self.work)])

    @precondition(lambda self: self.last is not None)
    @rule()
    def rerun(self):
        argv, tree = self.last
        assert self._run(argv) == 0
        assert _tree(self.work) == tree, f"re-run {argv[0]} wrote other bytes"

    @rule(data=st.data(), damage=st.sampled_from(["truncate", "flip", "delete"]))
    def damage_artifact(self, data, damage):
        files = [path for path in sorted(self.work.rglob("*")) if path.is_file()]
        if not files:
            return
        path = data.draw(st.sampled_from(files), label="artifact")
        raw = path.read_bytes()
        if damage == "delete":
            path.unlink()
        elif damage == "truncate":
            path.write_bytes(raw[:data.draw(st.integers(0, max(len(raw) - 1, 0)), label="keep")])
        elif raw:
            at = data.draw(st.integers(0, len(raw) - 1), label="at")
            path.write_bytes(raw[:at] + bytes([raw[at] ^ 0xFF]) + raw[at + 1:])
        self.last = None


def test_commands_over_a_finished_work_directory_keep_the_failure_contract(finished, tmp_path):
    manifest, work = finished
    examples = itertools.count()

    def machine():
        root = tmp_path / f"example{next(examples)}"
        root.mkdir()
        return PipelineMachine(work, manifest, root)

    run_state_machine_as_test(machine, settings=settings(
        derandomize=True, database=None, deadline=None, max_examples=30,
        stateful_step_count=10))
