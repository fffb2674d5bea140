#!/usr/bin/env python3
"""End-to-end smoke of the `minicost` command-line tool.

Runs the built binary in a temporary directory on a ~2k-file trace: every
command, the byte-exact format round trips, the plan modes that check their
own bills (--compare, --replan, a scripted --serve session), and the
malformed inputs that must fail with exit 1 and exactly one stderr line.
`convert --pagecounts` reads small dump directories the test writes itself
in both Wikimedia grammars.

    python3 tests/tools/cli_test.py path/to/minicost

ctest runs it as `cli_smoke`. Each `--example path/to/binary` after the
minicost path adds an example program to ExampleFlagsTest, which checks
that malformed flags fail it the same way; ctest runs that class alone as
`example_flags_smoke`:

    python3 tests/tools/cli_test.py path/to/minicost \
        --example path/to/quickstart ExampleFlagsTest
"""

import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BINARY = None  # set from argv in __main__
EXAMPLES = []  # the --example paths from argv
FILES = "2000"
DAYS = "31"


class CliSmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls._tmp = tempfile.TemporaryDirectory()
        cls.dir = Path(cls._tmp.name)
        cls.env = dict(os.environ, MINICOST_OUT=str(cls.dir / "reports"))
        for out in ("t.csv", "t.mct"):
            cls.invoke_ok("generate", "--files", FILES, "--days", DAYS,
                          "--out", out)
        cls.invoke_ok("generate", "--files", FILES, "--days", DAYS,
                      "--out", "d.mct", "--codec", "delta",
                      "--integral-counts", "true")

    @classmethod
    def tearDownClass(cls):
        cls._tmp.cleanup()

    @classmethod
    def invoke(cls, *args, stdin=None, preexec_fn=None):
        return subprocess.run([BINARY, *args], cwd=cls.dir, env=cls.env,
                              input=stdin, capture_output=True, text=True,
                              timeout=60, preexec_fn=preexec_fn)

    @classmethod
    def invoke_ok(cls, *args, stdin=None):
        result = cls.invoke(*args, stdin=stdin)
        if result.returncode != 0:
            raise AssertionError(f"minicost {' '.join(args)} exited "
                                 f"{result.returncode}: {result.stderr}")
        return result.stdout

    def read(self, name):
        return (self.dir / name).read_bytes()

    def report(self):
        path = self.dir / "reports" / "minicost_plan.json"
        return json.loads(path.read_text())

    def total(self, stdout):
        lines = [l for l in stdout.splitlines() if l.startswith("total ")]
        self.assertEqual(len(lines), 1, stdout)
        return lines[0].split()[1]

    def test_info_and_verify(self):
        info = self.invoke_ok("info", "d.mct")
        self.assertIn("delta", info)
        self.assertRegex(info, r"compression ratio\s+[0-9.]+x")
        self.assertIn("v1/raw", self.invoke_ok("info", "t.mct"))
        for store in ("t.mct", "d.mct"):
            self.assertIn("all checksums match",
                          self.invoke_ok("verify", store))

    def test_convert_round_trips_are_byte_exact(self):
        # csv -> mct -> csv keeps the co-request groups and every byte.
        for codec in ("v1", "raw", "delta"):
            self.invoke_ok("convert", "t.csv", "--out", f"c_{codec}.mct",
                           "--codec", codec)
            self.invoke_ok("convert", f"c_{codec}.mct",
                           "--out", f"c_{codec}.csv")
            self.assertEqual(self.read(f"c_{codec}.csv"), self.read("t.csv"),
                             codec)
        # mct -> csv -> mct rebuilds the streamed store exactly.
        self.invoke_ok("convert", "t.mct", "--out", "s.csv")
        self.invoke_ok("convert", "s.csv", "--out", "s.mct")
        self.assertEqual(self.read("s.mct"), self.read("t.mct"))
        self.assertIn("co-request groups",
                      self.invoke_ok("analyze", "c_delta.mct"))

    def test_csv_and_store_plans_bill_alike_with_one_metric_set(self):
        self.invoke_ok("convert", "t.csv", "--out", "g.mct")
        csv_out = self.invoke_ok("plan", "t.csv", "--policy", "greedy")
        csv_metrics = self.report()["metrics"]
        mct_out = self.invoke_ok("plan", "g.mct", "--policy", "greedy",
                                 "--shard-files", "512")
        mct_metrics = self.report()["metrics"]
        self.assertEqual(self.total(csv_out), self.total(mct_out))
        self.assertEqual(csv_metrics["total_cost"], mct_metrics["total_cost"])
        self.assertEqual(sorted(csv_metrics), sorted(mct_metrics))

    def test_plan_compare_is_byte_identical(self):
        for store in ("t.mct", "d.mct"):
            out = self.invoke_ok("plan", store, "--policy", "greedy",
                                 "--shard-files", "512", "--compare")
            self.assertIn("monolithic comparison: byte-identical", out)
            self.assertEqual(self.report()["metrics"]["bills_identical"], 1)

    def test_plan_pool_follows_the_cpu_affinity_mask(self):
        # A child confined to one CPU, as under `taskset -c N`, sizes its
        # pool at one thread. Its report's environment differs from the
        # other runs', so it goes to the path its [report] line names.
        cpu = min(os.sched_getaffinity(0))
        result = self.invoke("plan", "t.mct", "--policy", "greedy",
                             preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        self.assertEqual(result.returncode, 0, result.stderr)
        paths = [l.split(" ", 1)[1] for l in result.stderr.splitlines()
                 if l.startswith("[report] ")]
        self.assertEqual(len(paths), 1, result.stderr)
        report = json.loads((self.dir / paths[0]).read_text())
        self.assertEqual(report["env"]["threads"], 1)

    def test_plan_replan_is_byte_identical(self):
        out = self.invoke_ok("plan", "t.mct", "--policy", "greedy",
                             "--shard-files", "512", "--replan", "0:600")
        self.assertIn("replan bill vs full plan: byte-identical", out)

    def test_plan_format_csv_stdout_is_clean_csv(self):
        header = ["event", "policy", "shard_files", "shards", "replanned",
                  "wall_seconds", "decide_sum_seconds",
                  "decide_ns_per_file_day", "total_cost", "tier_changes"]
        runs = [
            ("plan", "t.csv", "--policy", "greedy", "--format", "csv"),
            ("plan", "t.mct", "--policy", "greedy", "--format", "csv"),
            ("plan", "t.mct", "--policy", "greedy",
             "--sweep-shard-files", "0,1000", "--format", "csv"),
            ("plan", "t.mct", "--policy", "greedy", "--shard-files", "512",
             "--compare", "--format", "csv"),
        ]
        for args in runs:
            with self.subTest(args=" ".join(args)):
                result = self.invoke(*args)
                self.assertEqual(result.returncode, 0, result.stderr)
                if "--compare" in args:
                    self.assertIn("monolithic comparison: byte-identical",
                                  result.stderr)
                reader = csv.DictReader(io.StringIO(result.stdout))
                self.assertEqual(reader.fieldnames, header)
                rows = list(reader)
                for row in rows:
                    self.assertNotIn(None, row, row)  # no extra fields
                    self.assertNotIn(None, row.values(), row)  # none missing
                    self.assertEqual(row["event"], "plan", row)
                self.assertEqual(len(rows), 2 if "--sweep-shard-files" in args
                                 else 1)

    def dumps(self, name, files):
        """Writes the pagecounts dump directory `name`, {file name: text}."""
        (self.dir / name).mkdir()
        for file_name, text in files.items():
            (self.dir / name / file_name).write_text(text)
        return name

    def convert_dumps(self, name, days):
        """Converts dump directory `name` to `name`.csv over `days` days;
        returns ({title: daily reads}, stderr)."""
        return self.convert_dumps_for(name, None, days, "en")

    def convert_dumps_for(self, name, files, days, project):
        """convert_dumps with `--project project`, first writing `files`
        into directory `name` unless they are None."""
        if files is not None:
            self.dumps(name, files)
        result = self.invoke("convert", "--pagecounts", name, "--days", days,
                             "--project", project, "--out", f"{name}.csv")
        self.assertEqual(result.returncode, 0, result.stderr)
        reads = {}
        for row in csv.reader(io.StringIO(self.read(f"{name}.csv").decode())):
            if row[0] == "file":
                reads[row[1]] = [float(v) for v in row[3:3 + int(days)]]
        return reads, result.stderr

    def test_pagecounts_classic_directory_round_trips(self):
        files = {f"pagecounts-20110715-{h:02d}0000":
                 f"en A {h + 1} 100\nen B 2 100\nde A 50 100\n"
                 for h in range(24)}
        files["pagecounts-20110716-000000"] = "en A 7 100\n"
        reads, err = self.convert_dumps(self.dumps("classic", files), "2")
        self.assertEqual(reads, {"A": [300.0, 7.0], "B": [48.0, 0.0]})
        self.assertEqual(err, "pagecounts: skipped lines: 0 malformed, "
                              "0 with views past --days\n")
        self.invoke_ok("convert", "--pagecounts", "classic", "--days", "2",
                       "--out", "classic.mct")
        self.invoke_ok("convert", "classic.mct", "--out", "classic_back.csv")
        self.assertEqual(self.read("classic_back.csv"),
                         self.read("classic.csv"))

    def test_pagecounts_ez_month_gives_per_day_reads(self):
        # The ez grammar writes English Wikipedia "en.z"; --project is "en".
        reads, _ = self.convert_dumps(self.dumps("ez", {
            "pagecounts-2011-07-views-ge-5":
                "# merged daily views\n"
                "en.z Main_Page 314 1:A5B7,2:C9,31:X3\n"
                "de.z Main_Page 9 1:A9\n"}), "31")
        expected = [0.0] * 31
        expected[0], expected[1], expected[30] = 12.0, 9.0, 3.0
        self.assertEqual(reads, {"Main_Page": expected})

    def test_pagecounts_mixed_directory_sums_both_grammars(self):
        reads, _ = self.convert_dumps(self.dumps("mixed", {
            "pagecounts-2011-07": "en.z A 9 2:A4,3:B5\n",
            "pagecounts-20110702-050000": "en A 10 100\n"}), "3")
        self.assertEqual(reads, {"A": [0.0, 14.0, 5.0]})

    def test_pagecounts_missing_hours_leave_later_days_in_place(self):
        reads, _ = self.convert_dumps(self.dumps("gap", {
            "pagecounts-20110715-000000": "en A 1 100\n",
            "pagecounts-20110717-230000": "en A 4 100\n"}), "3")
        self.assertEqual(reads, {"A": [1.0, 0.0, 4.0]})

    def test_pagecounts_skipped_lines_are_counted_on_stderr(self):
        _, err = self.convert_dumps(self.dumps("skips", {
            "pagecounts-20110701-000000":
                "en A 1 100\ngarbage\nen A x 100\n\n# comment\n",
            "pagecounts-2011-07": "en.z A 1 1:A1,32:B1\nen.z B 1 20:A1\n"}),
            "3")
        self.assertEqual(err, "pagecounts: skipped lines: 3 malformed, "
                              "1 with views past --days\n")

    def test_pagecounts_ez_project_name_means_the_same_project(self):
        # The ez grammar writes English Wikipedia "en.z"; a user may type it.
        reads, _ = self.convert_dumps_for("ez_project", {
            "pagecounts-2011-07": "en.z A 9 2:A4\nde.z A 1 2:A1\n",
            "pagecounts-20110702-050000": "en A 10 100\n"}, "3", "en.z")
        self.assertEqual(reads, {"A": [0.0, 14.0, 0.0]})

    def test_pagecounts_no_line_for_the_project_fails(self):
        result = self.invoke("convert", "--pagecounts",
                             self.dumps("other_project", {
                                 "pagecounts-2011-07": "de.z A 1 1:A1\n"}),
                             "--project", "en", "--out", "other.csv")
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertEqual(len(result.stderr.splitlines()), 1, result.stderr)
        self.assertIn("project 'en'", result.stderr)
        self.assertFalse((self.dir / "other.csv").exists())

    def test_pagecounts_subdirectory_fails_naming_it(self):
        name = self.dumps("nested", {"pagecounts-20110715-000000":
                                     "en A 1 100\n"})
        (self.dir / name / "2011-07").mkdir()
        (self.dir / name / "2011-07" / "pagecounts-20110715-010000") \
            .write_text("en A 2 100\n")
        result = self.invoke("convert", "--pagecounts", name,
                             "--out", "nested.csv")
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertEqual(len(result.stderr.splitlines()), 1, result.stderr)
        self.assertIn("2011-07 is not a regular file", result.stderr)
        self.assertFalse((self.dir / "nested.csv").exists())

    def test_pagecounts_refusals_fail_with_one_stderr_line(self):
        cases = {
            "unknown_name": {"pagecounts-00": "en A 1 100\n"},
            "compressed": {"pagecounts-20110715-000000.gz": "en A 1 100\n"},
            "duplicate_hour": {"pagecounts-20110715-000000": "en A 1 100\n",
                               "pagecounts-20110715-003000": "en A 1 100\n"},
            "duplicate_month": {"pagecounts-2011-07": "en.z A 1 1:A1\n",
                                "pagecounts-2011-07-01": "en.z A 1 1:A1\n"},
            "nothing_parses": {"pagecounts-20110715-000000":
                               "en.z A 1 1:A1\ngarbage\n",
                               "pagecounts-20110715-010000": "en A 1 100\n"},
        }
        for name, files in cases.items():
            with self.subTest(name):
                result = self.invoke("convert", "--pagecounts",
                                     self.dumps(f"bad_{name}", files),
                                     "--out", f"bad_{name}.csv")
                self.assertEqual(result.returncode, 1, result.stdout)
                self.assertEqual(len(result.stderr.splitlines()), 1,
                                 result.stderr)
                self.assertEqual(result.stdout, "")
                self.assertFalse((self.dir / f"bad_{name}.csv").exists())

    def test_scripted_serve_session(self):
        out = self.invoke_ok("plan", "t.mct", "--serve",
                             "--policy", "greedy,hot", "--shard-files", "512",
                             stdin="plan\ntouch 0 600\nreplan\npolicy nosuch\n"
                                   "policy hot\nplan\nsweep\nquit\n")
        body = "\n".join(l for l in out.splitlines()
                         if l.startswith(("event,", "plan,", "replan,", "sweep,")))
        rows = list(csv.DictReader(io.StringIO(body)))
        plan, replan = rows[0], rows[1]
        self.assertEqual((plan["event"], replan["event"]), ("plan", "replan"))
        self.assertEqual(plan["total_cost"], replan["total_cost"])
        self.assertEqual(plan["tier_changes"], replan["tier_changes"])
        self.assertLess(int(replan["replanned"]), int(plan["replanned"]))
        self.assertIn("error,unknown policy 'nosuch'", out)
        self.assertEqual(rows[2]["policy"], "Hot")
        self.assertEqual([r["event"] for r in rows[3:]], ["sweep", "sweep"])

    def test_crossover_prints_break_even_sheet_and_curves(self):
        # 0 MB is a valid size: only the size-dependent charges vanish.
        out = self.invoke_ok("crossover", "--preset", "s3", "--size-mb", "0")
        self.assertIn("@ 0 MB:", out)
        for section in ("cool vs archive", "storage $/GB-mo", "tier change:",
                        "daily cost for a 0 MB file:", "best tier"):
            self.assertIn(section, out)

    def test_malformed_inputs_fail_with_one_stderr_line(self):
        cases = [
            ("plan", "t.mct", "--preset", "nosuch"),
            ("plan", "t.mct", "--shard-files", "12abc"),
            ("plan", "t.mct", "--shard-files", "abc"),
            ("plan", "t.mct", "--policy", "greedy", "--compare", "maybe"),
            ("generate", "--files", "-1", "--out", "never.mct"),
            ("plan", "t.csv", "--serve"),
            ("plan", "t.csv", "--replan", "0:10"),
            ("plan", "t.mct", "--policy", "nosuch"),
            ("plan", "t.mct", "--serve", "--replan", "0:10"),
            ("plan", "t.mct", "--bogus"),
            ("generate", "--out", "never.csv", "--codec", "delta"),
            ("crossover", "--size-mb", "100x"),
            ("crossover", "--size-mb", "-100"),
        ]
        for args in cases:
            with self.subTest(args=" ".join(args)):
                result = self.invoke(*args)
                self.assertEqual(result.returncode, 1, result.stdout)
                self.assertEqual(len(result.stderr.splitlines()), 1,
                                 result.stderr)
                self.assertEqual(result.stdout, "")
        self.assertFalse((self.dir / "never.mct").exists())


class ExampleFlagsTest(unittest.TestCase):
    """Malformed flag values end an example with exit 1 and one stderr line
    (not std::terminate), before it does any work."""

    def test_malformed_flags_fail_with_one_stderr_line(self):
        if not EXAMPLES:
            self.skipTest("no --example binaries given")
        for example in EXAMPLES:
            for args in (("--seed", "12abc"), ("--files", "-1")):
                with self.subTest(example=Path(example).name,
                                  args=" ".join(args)):
                    result = subprocess.run([example, *args],
                                            capture_output=True, text=True,
                                            timeout=60)
                    self.assertEqual(result.returncode, 1, result.stdout)
                    self.assertEqual(len(result.stderr.splitlines()), 1,
                                     result.stderr)
                    self.assertEqual(result.stdout, "")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: cli_test.py path/to/minicost "
                 "[--example path/to/binary ...] [unittest args]")
    BINARY = str(Path(sys.argv.pop(1)).resolve())
    while len(sys.argv) > 2 and sys.argv[1] == "--example":
        EXAMPLES.append(str(Path(sys.argv[2]).resolve()))
        del sys.argv[1:3]
    unittest.main()
