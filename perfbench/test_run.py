"""Tests of the benchmark harness itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root; the first test builds the OCaml helper."""

import os
import socket
import tempfile
import threading
import time
import unittest

import run

WORKLOAD_NAMES = sorted(run.WORKLOADS)


def setUpModule():
    os.chdir(run.ROOT)
    os.makedirs(run.WORK, exist_ok=True)


class RequestLines(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def gen(self, name, seed):
        return run.helper(["gen", "--workload", name, "--seed", str(seed), "--seconds", "2"])

    def test_same_seed_gives_identical_bytes(self):
        for name in WORKLOAD_NAMES:
            with self.subTest(workload=name):
                self.assertEqual(self.gen(name, 7), self.gen(name, 7))

    def test_other_seed_changes_the_sequence(self):
        for name in WORKLOAD_NAMES:
            with self.subTest(workload=name):
                self.assertNotEqual(self.gen(name, 7), self.gen(name, 8))

    def test_sequences_index_the_table(self):
        for name in WORKLOAD_NAMES:
            wl = run.Workload(self.gen(name, 3))
            with self.subTest(workload=name):
                self.assertEqual(len(wl.conns), 2 if name == "fleet_mix" else 1)
                for seq in wl.conns + [wl.prewarm]:
                    self.assertTrue(all(0 <= i < len(wl.lines) for i in seq))
                self.assertTrue(all(line.startswith(b'{"v":1,') for line in wl.lines))

    def test_fleet_sync_steps_share_one_request(self):
        wl = run.Workload(self.gen("fleet_mix", 3))
        self.assertTrue(wl.sync)
        for k in wl.sync:
            self.assertEqual(wl.conns[0][k], wl.conns[1][k])


class Percentile(unittest.TestCase):
    def test_p95_needs_ten_samples_beyond(self):
        value, n, beyond = run.percentile(list(range(199)), 0.95)
        self.assertIsNone(value)
        self.assertEqual((n, beyond), (199, 9))
        value, n, beyond = run.percentile(list(range(200)), 0.95)
        self.assertEqual((value, n, beyond), (189, 200, 10))

    def test_summary_needs_a_supported_p95_in_every_chunk(self):
        def records(n):
            return [(0, i * 0.01, i * 0.01 + 0.001 * (i % 7 + 1), "ok", b'{"ok":true}')
                    for i in range(n)]
        s = run.summarize(records(199), ["analyze"], 0.0)
        self.assertIsNone(s["p95"][0])
        s = run.summarize(records(450), ["analyze"], 0.0)
        self.assertEqual(s["chunks"], 2)
        value, n, beyond = s["p95"]
        self.assertIsNotNone(value)
        self.assertEqual(n, 450)
        self.assertGreaterEqual(beyond, 10)

    def test_p50(self):
        self.assertEqual(run.percentile([5, 1, 3] * 10, 0.5), (3, 30, 15))


class HostSpeed(unittest.TestCase):
    records = [(0, i * 0.01, i * 0.01 + 0.002, "ok", b'{"ok":true}') for i in range(400)]

    def test_times_scale_with_the_probe(self):
        base = run.summarize(self.records, ["analyze"], 0.0)
        probes = [(i * 0.5, 2 * run.PROBE_NOMINAL_MS, 0.0) for i in range(1, 9)]
        slow = run.summarize(self.records, ["analyze"], 0.0, probes=probes)
        self.assertAlmostEqual(slow["p50"][0], base["p50"][0] / 2)
        self.assertAlmostEqual(slow["throughput"], base["throughput"] * 2)

    def test_probe_time_leaves_throughput(self):
        probes = [(i * 0.5, run.PROBE_NOMINAL_MS, 0.1) for i in range(1, 9)]
        s = run.summarize(self.records, ["analyze"], 0.0, probes=probes)
        # 400 requests by t = 3.992 s; seven probes of 0.1 s fall before
        self.assertAlmostEqual(s["throughput"], 400 / 3.292)

    def test_slowdown_window(self):
        probes = [(1.0, 2.0, 0.0), (2.0, 4.0, 0.0), (3.0, 6.0, 0.0)]
        nominal = run.PROBE_NOMINAL_MS
        self.assertEqual(run.slowdown(probes, 1.5, 3.0), 5.0 / nominal)
        self.assertEqual(run.slowdown(probes, 5.0, 6.0), 4.0 / nominal)
        self.assertEqual(run.slowdown([]), 1.0)


def fake_server(path, reply):
    """A Unix-socket server answering each request line with `reply`
    (None: read and never answer)."""
    srv = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    srv.bind(path)
    srv.listen(4)
    stop = threading.Event()

    def serve_conn(conn):
        f = conn.makefile("rb")
        while not stop.is_set() and f.readline():
            if reply is not None:
                conn.sendall(reply + b"\n")
        f.close()
        conn.close()

    def loop():
        srv.settimeout(0.05)
        while not stop.is_set():
            try:
                conn, _ = srv.accept()
            except socket.timeout:
                continue
            threading.Thread(target=serve_conn, args=(conn,), daemon=True).start()
        srv.close()

    threading.Thread(target=loop, daemon=True).start()
    return stop


class FailureAccounting(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.mkdtemp(dir=run.WORK)
        self.path = os.path.join(self.dir, "s.sock")
        self.lines = [b'{"v":1,"op":"analyze","circuit":"c17"}']
        self.ops = ["analyze"]

    def tearDown(self):
        for f in os.listdir(self.dir):
            os.unlink(os.path.join(self.dir, f))
        os.rmdir(self.dir)

    def drive(self, seconds, timeout=1.0):
        records = run.drive(self.path, self.lines, [0], time.perf_counter() + seconds, timeout=timeout)
        return records, run.summarize(records, self.ops, 0.0)

    def test_refused_attempts_count_as_failed(self):
        records, s = self.drive(0.2)
        self.assertGreater(s["attempted"], 0)
        self.assertTrue(all(r[3] == "refused" for r in records))
        self.assertEqual(s["failed"], s["attempted"])
        self.assertEqual(s["failed_frac"], 1.0)

    def test_timed_out_attempts_count_as_failed(self):
        stop = fake_server(self.path, None)
        try:
            records, s = self.drive(0.5, timeout=0.2)
        finally:
            stop.set()
        self.assertGreater(s["attempted"], 0)
        self.assertIn("timeout", {r[3] for r in records})
        self.assertEqual(s["failed_frac"], 1.0)

    def test_error_responses_and_oracle_mismatches_count_as_failed(self):
        stop = fake_server(self.path, b'{"v":1,"ok":false,"error":{"code":"overloaded"}}')
        try:
            records, s = self.drive(0.1)
        finally:
            stop.set()
        self.assertTrue(records)
        self.assertEqual(s["failed_frac"], 1.0)
        answer = b'{"v":1,"ok":true,"result":{"kind":"analysis"}}'
        ok = [(0, 0.0, 0.001, "ok", answer), (0, 0.0, 0.002, "ok", answer)]
        s = run.summarize(ok, self.ops, 0.0, mismatched={1})
        self.assertEqual((s["attempted"], s["failed"], s["completed"]), (2, 1, 1))


if __name__ == "__main__":
    unittest.main()
