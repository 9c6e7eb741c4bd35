#!/usr/bin/env python3
"""End-to-end benchmark for rainshine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the repository root. The first call builds the libraries, the
shipped rainshine_serve tool and the benchmark's own in-process runner and
load client (Release, into .bench_build/, or $CARGO_TARGET_DIR when set).

Workloads (see BENCHMARK.json for why each was chosen):
  paper_study    the paper pipeline at paper scale, in-process
  early_warning  the predict pipeline plus bulk scoring, in-process
  serve_online   the rainshine_serve process under HTTP load

--trace 0 measures the end-to-end metrics; --trace 1 the per-layer ones.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. `--workload all` runs every workload both ways and prints every
metric by name, with its unit, including the serving latencies and quality
figures the per-layer runs carry.
"""

import argparse
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NPROC = min(4, os.cpu_count() or 1)
WORKLOADS = ("paper_study", "early_warning", "serve_online")

# serve_online: the fixed rate ladder; max_rps_slo is its highest rate whose
# p99 meets the limit with no failed request and the generator on time.
RATES = (250, 500, 1000, 2000, 4000, 8000)
P99_LIMIT_MS = 25.0
GEN_LAG_LIMIT_MS = 5.0
CLOSED_PASS_REQUESTS = 1000
MIN_PASSES = 3

# Headline figures under their own names, for `--workload all`:
# name -> (workload, traced run?, metric). The result lines carry them under
# metric names every workload shares (job_s) or as per-layer metrics.
HEADLINES = {
    "study_s": ("paper_study", 0, "job_s"),
    "warning_s": ("early_warning", 0, "job_s"),
    "fleet_score_rows_per_s": ("early_warning", 1, "serve.bulk_rows_per_s"),
    "precision_at_5pct": ("early_warning", 1, "predict.precision_at_5pct"),
    "p50_ms_250rps": ("serve_online", 1, "net.p50_ms_250rps"),
    "p99_ms_250rps": ("serve_online", 1, "net.p99_ms_250rps"),
    "p50_ms_1000rps": ("serve_online", 1, "net.p50_ms_1000rps"),
    "p99_ms_1000rps": ("serve_online", 1, "net.p99_ms_1000rps"),
    "max_rps_slo": ("serve_online", 1, "net.max_rps_slo"),
    "serve_job_s": ("serve_online", 0, "job_s"),
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run(cmd, timeout, **kw):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout, **kw)
    if proc.returncode != 0:
        raise BenchError("%s failed (%d): %s" % (os.path.basename(cmd[0]),
                                                 proc.returncode, proc.stderr[-2000:]))
    return proc.stdout


def last_json(text):
    lines = [l for l in text.strip().splitlines() if l.startswith("{")]
    if not lines:
        raise BenchError("no JSON result in output")
    return json.loads(lines[-1])


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("rainshine sources not found next to perfbench/")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"], 600)
    run(["cmake", "--build", out, "-j", str(NPROC), "--target", "perfbench_inproc",
         "perfbench_load", "rainshine_serve_tool"], 900)
    return {name: os.path.join(out, name)
            for name in ("perfbench_inproc", "perfbench_load", "rainshine_serve")}


def child_env():
    env = dict(os.environ)
    env["RAINSHINE_THREADS"] = str(NPROC)
    return env


def inproc(bins, mode, seed, seconds, trace, extra=()):
    cmd = [bins["perfbench_inproc"], mode, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "1" if trace else "0", *extra]
    return last_json(run(cmd, 170, env=child_env()))


def median(values):
    v = sorted(values)
    n = len(v)
    return v[n // 2] if n % 2 else 0.5 * (v[n // 2 - 1] + v[n // 2])


# -- serve_online --------------------------------------------------------------

class Server:
    """rainshine_serve at its default configuration on an ephemeral port."""

    def __init__(self, binary, model):
        t = time.perf_counter()
        self.proc = subprocess.Popen([binary, "--model", model, "--port", "0"],
                                     stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                     text=True, env=child_env())
        line = self.proc.stdout.readline()
        self.start_s = time.perf_counter() - t
        if not line.startswith("listening on "):
            self.stop()
            raise BenchError("rainshine_serve did not start: %r" % line)
        self.port = int(line.split()[2].rsplit(":", 1)[1])

    def metrics(self):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/metrics?format=json")
            resp = conn.getresponse()
            body = resp.read()
            if resp.status != 200:
                raise BenchError("/metrics returned %d" % resp.status)
            return json.loads(body)
        finally:
            conn.close()

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def delta(before, after, kind, name, field=None):
    def get(snap):
        item = snap[kind].get(name, 0 if field is None else {})
        return item if field is None else item.get(field, 0)
    return get(after) - get(before)


def load(bins, server, pool, rate=None, seconds=None, closed=None):
    cmd = [bins["perfbench_load"], "--port", str(server.port), "--pool", pool]
    if closed:
        cmd += ["--closed", str(closed)]
    else:
        cmd += ["--rate", str(rate), "--seconds", str(seconds)]
    return last_json(run(cmd, 120))


def ladder(bins, server, pool, account):
    """One pass up the rate ladder; rate -> the load client's result, with
    the server's /metrics before and after the step and whether it met the
    SLO. Stops at the first failing rate above 1000."""
    steps = {}
    for rate in RATES:
        before = server.metrics()
        r = account(load(bins, server, pool, rate=rate, seconds=max(1.0, 1000.0 / rate)))
        r["after"], r["before"] = server.metrics(), before
        r["slo"] = (r["failed"] == 0 and r["p99_ms"] <= P99_LIMIT_MS and
                    r["gen_lag_ms"] <= GEN_LAG_LIMIT_MS)
        steps[rate] = r
        if not r["slo"] and rate >= 1000:
            break
    return steps


def serve_online(bins, seed, seconds, trace):
    work = os.path.join(build_dir(), "serve-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    server = None
    try:
        prep = inproc(bins, "serve_prepare", seed, seconds, trace, ("--dir", work))
        model, pool = os.path.join(work, "model.rsf"), os.path.join(work, "requests.bin")
        starts = []
        for _ in range(5):
            if server:
                server.stop()
            server = Server(bins["rainshine_serve"], model)
            starts.append(server.start_s)
        setup_s = prep["metrics"]["prepare_s"]["value"] + median(starts)
        attempted, failed = 0, 0

        def account(r):
            nonlocal attempted, failed
            attempted += r["attempted"]
            failed += r["failed"]
            return r

        account(load(bins, server, pool, closed=200))  # warm-up
        start = time.perf_counter()
        metrics = {}
        if not trace:
            passes = []
            while True:
                r = account(load(bins, server, pool, closed=CLOSED_PASS_REQUESTS))
                passes.append(r["wall_s"])
                if len(passes) >= MIN_PASSES and \
                        time.perf_counter() - start + r["wall_s"] > seconds:
                    break
            metrics["setup_s"] = setup_s
            metrics["job_s"] = median(passes)
            metrics["peak_rss_mb"] = server.peak_rss_mb()
        else:
            metrics.update({k: v["value"] for k, v in prep["metrics"].items()
                            if k != "prepare_s"})
            # The ladder repeats while the run lasts; each figure is the
            # median over the ladders, the server's counters are summed over
            # every 1000 rps step.
            first, ladders = server.metrics(), []
            while True:
                t = time.perf_counter()
                ladders.append(ladder(bins, server, pool, account))
                now = time.perf_counter()
                if now - start + (now - t) > seconds:
                    break
            last = server.metrics()
            for rate in (250, 1000):
                for q in ("p50", "p99"):
                    metrics["net.%s_ms_%drps" % (q, rate)] = median(
                        [steps[rate]["%s_ms" % q] for steps in ladders])
            metrics["net.max_rps_slo"] = median(
                [max([rate for rate, r in steps.items() if r["slo"]], default=0)
                 for steps in ladders])
            at_1000 = [steps[1000] for steps in ladders]

            def total(kind, name, field=None):
                return sum(delta(r["before"], r["after"], kind, name, field) for r in at_1000)

            batches = max(1, total("counters", "serve.batches_flushed"))
            metrics["serve.batch_rows_mean"] = (
                total("histograms", "serve.batch_rows", "sum") / batches)
            metrics["serve.deadline_flush_frac"] = (
                total("counters", "serve.deadline_flushes") / batches)
            request_us = (total("histograms", "net.request_us", "sum") /
                          max(1, total("histograms", "net.request_us", "count")))
            metrics["net.request_us"] = request_us
            metrics["net.wire_us"] = median([r["rtt_us_mean"] for r in at_1000]) - request_us
            metrics["net.gen_lag_ms"] = median([r["gen_lag_ms"] for r in at_1000])
            metrics["net.connections_shed"] = delta(first, last, "counters",
                                                    "net.connections_shed")
            metrics["net.score_shed"] = delta(first, last, "counters", "net.score_shed")
        return {"correct": prep["correct"] and failed == 0, "attempted": attempted,
                "failed": failed, "digest": prep["digest"], "metrics": metrics,
                "note": "" if failed == 0 else "%d requests failed" % failed}
    finally:
        if server:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)


# -- result --------------------------------------------------------------------

def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def measure(bins, workload, seed, seconds, trace):
    if workload == "serve_online":
        res = serve_online(bins, seed, seconds, trace)
    else:
        res = inproc(bins, workload, seed, seconds, trace)
        res["metrics"] = {k: v["value"] for k, v in res["metrics"].items()}
    log("%s seed %d digest %s" % (workload, seed, res["digest"]))
    with open(os.path.join(HERE, "digests.json")) as f:
        expected = json.load(f).get(workload, {}).get(str(seed))
    if expected is not None and expected != res["digest"]:
        res["correct"] = False
        res["note"] = "digest %s differs from the one recorded for seed %d (%s)" % (
            res["digest"], seed, expected)
    if expected is not None and not res.get("reference_ok", True):
        res["correct"] = False
    return res


def result_line(res, trace):
    """Reshapes a result into the output format: every end-to-end (or per-layer)
    metric of BENCHMARK.json by name and unit. A layer a workload does not
    exercise reports 0 for its work."""
    listed = spec()["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    unknown = set(res["metrics"]) - set(units)
    if unknown:
        raise BenchError("metrics missing from BENCHMARK.json: %s" % sorted(unknown))
    if not trace and set(units) - set(res["metrics"]):
        raise BenchError("end-to-end metrics not measured: %s"
                         % sorted(set(units) - set(res["metrics"])))
    metrics = {name: {"value": float(res["metrics"].get(name, 0.0)), "unit": units[name]}
               for name in units}
    return {"correct": bool(res["correct"]), "attempted": int(res["attempted"]),
            "failed": int(res["failed"]), "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=2017)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    try:
        bins = build()
        if args.workload != "all":
            res = measure(bins, args.workload, args.seed, args.seconds, args.trace)
            if res.get("note"):
                log("%s: %s" % (args.workload, res["note"]))
            print(json.dumps(result_line(res, args.trace)), flush=True)
            return 0
        report, lines = {}, {}
        for workload in WORKLOADS:
            for trace in (0, 1):
                res = measure(bins, workload, args.seed, args.seconds, trace)
                line = lines[workload, trace] = result_line(res, trace)
                for name, m in line["metrics"].items():
                    if trace == 0 or name in res["metrics"]:
                        print("%-14s %-34s %16.6g %s" % (workload, name, m["value"], m["unit"]))
                report[workload + ("_traced" if trace else "")] = {
                    "correct": line["correct"], "attempted": line["attempted"],
                    "failed": line["failed"], "note": res.get("note", "")}
        print()
        for name, (workload, trace, metric) in HEADLINES.items():
            m = lines[workload, trace]["metrics"][metric]
            print("%-24s %16.6g %-5s (%s %s)" % (name, m["value"], m["unit"], workload, metric))
        for workload in WORKLOADS:
            for metric in ("setup_s", "peak_rss_mb"):
                m = lines[workload, 0]["metrics"][metric]
                print("%-24s %16.6g %-5s (%s)" % (metric, m["value"], m["unit"], workload))
        print(json.dumps(report), flush=True)
        return 0 if all(r["correct"] for r in report.values()) else 1
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log("perfbench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
