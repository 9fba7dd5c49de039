// Command perfbench is the repository's benchmark. It runs one of four
// closed-loop workloads against the real-socket stack and the simulator
// from a single process, verifies every output, and prints each metric by
// name with its unit. The last line of standard output is a JSON result:
//
//	{"correct": true, "attempted": 312, "failed": 0, "metrics": {...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) records spans around every call into the program, takes a CPU
// profile, writes the spans out and derives the per-layer metrics from
// them. All measurement is taken from outside the program: the benchmark
// times its own calls into udplan, core, store and simrun, and the hooks it
// installs on udplan.Server.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench -workload bulk_pull|object_mix|lossy_striped|des_load|all \
//	    -seed N -seconds S -trace 0|1
//
// -workload all runs the four in turn in one process and prefixes each
// metric with its workload; max_rss_mb is then the peak so far. The exit
// status is non-zero when any request failed or any output failed
// verification.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"blastlan/internal/store"
)

// options are one run's settings.
type options struct {
	seed    int64
	seconds float64
	work    string // directory for scratch files and span dumps
	root    string // repository root, for the environment stamp
	skew    uint16 // XORed into the references measured requests check against; tests set it to prove verification fires
}

// An untraced run sets its workload up at least setupReps times and for at
// least setupTime, keeping the last set-up; setup_s is the median. The
// time floor gives cheap set-ups enough repetitions for a steady median.
const (
	setupReps = 3
	setupTime = time.Second
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: bulk_pull, object_mix, lossy_striped, des_load or all")
	seed := fl.Int64("seed", 1, "workload seed: the same seed makes the same inputs")
	seconds := fl.Float64("seconds", 25, "length of the measured phase per workload")
	traced := fl.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	work := fl.String("work", filepath.Join(".bench_build", "perfbench"), "directory for scratch files and span dumps")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := workloadNamed(*name); ok {
		ws = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	root, _ := os.Getwd()
	o := options{seed: *seed, seconds: *seconds, work: *work, root: root}
	return execute(ws, o, *traced == 1, stdout)
}

// execute runs each workload in turn, prints its report and the JSON
// result, and returns the exit status.
func execute(ws []workload, o options, traced bool, stdout io.Writer) int {
	total := result{Correct: true, Metrics: map[string]value{}}
	for _, w := range ws {
		env := stampEnv(o.root, w.name, o.seed)
		envJSON, _ := json.Marshal(env)
		fmt.Fprintf(stdout, "env %s\n", envJSON)
		var res result
		var err error
		if traced {
			res, err = runTraced(w, o, stdout)
		} else {
			res, err = runUntraced(w, o, stdout)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(ws) > 1 {
				k = w.name + "." + k
			}
			total.Metrics[k] = v
		}
	}
	line, _ := json.Marshal(total)
	fmt.Fprintf(stdout, "%s\n", line)
	if !total.Correct || total.Failed > 0 {
		return 1
	}
	return 0
}

// setUp sets w up at least reps times and for at least minTime, keeping
// the last fixture, and returns the median set-up time.
func setUp(w workload, o options, reps int, minTime time.Duration) (fixture, float64, error) {
	var times []float64
	var f fixture
	for start := time.Now(); len(times) < reps || time.Since(start) < minTime; {
		if f != nil {
			f.close()
			runtime.GC() // the next set-up should not pay for this one's garbage
		}
		t0 := time.Now()
		var err error
		if f, err = w.setup(o); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return f, quantile(times, 0.5), nil
}

// runUntraced measures the end-to-end metrics.
func runUntraced(w workload, o options, out io.Writer) (result, error) {
	f, setupS, err := setUp(w, o, setupReps, setupTime)
	if err != nil {
		return result{}, err
	}
	defer f.close()
	p := runPhase(f, w, seconds(o), o, nil)
	reportErrors(w, p)

	lat := p.latencies()
	m := map[string]value{}
	put := func(name string, v float64) {
		m[name] = value{v, unitOf(name)}
		fmt.Fprintf(out, "%s %-16s %12.4f %s\n", w.name, name, v, unitOf(name))
	}
	put("goodput_mbps", p.goodputMBps())
	put("latency_p50_ms", quantile(lat, 0.50))
	put("latency_p90_ms", quantile(lat, 0.90))
	put("cpu_ns_per_byte", float64(p.cpu)/float64(max(p.bytes, 1)))
	put("max_rss_mb", maxRSSMiB())
	put("setup_s", setupS)
	// Printed, not part of the JSON result (see reportOnly).
	if len(lat) >= 1000 {
		fmt.Fprintf(out, "%s %-16s %12.4f ms\n", w.name, "latency_p99_ms", quantile(lat, 0.99))
	} else {
		fmt.Fprintf(out, "%s %-16s %12s ms (needs 1000 requests, made %d)\n", w.name, "latency_p99_ms", "n/a", len(lat))
	}
	fmt.Fprintf(out, "%s %-16s %12.4f ratio (%d of %d, %d wrong output)\n", w.name, "failed_ratio",
		float64(p.failed)/float64(max(p.attempted, 1)), p.failed, p.attempted, p.wrong)
	fmt.Fprintf(out, "%s requests=%d bytes=%d wall_s=%.3f cpu_s=%.3f stalls=%d busy_refusals=%d%s\n",
		w.name, p.attempted, p.bytes, p.wall.Seconds(), p.cpu.Seconds(), p.stalls, busyOf(f), engagedTier(f))
	return result{Correct: p.wrong == 0, Attempted: p.attempted, Failed: p.failed, Metrics: m}, nil
}

// runTraced measures an untraced half for the overhead baseline and
// allocations, then a traced half with a CPU profile, writes the spans
// out and derives the per-layer metrics from the written file.
func runTraced(w workload, o options, out io.Writer) (result, error) {
	f, _, err := setUp(w, o, 1, 0)
	if err != nil {
		return result{}, err
	}
	defer f.close()
	half := seconds(o) / 2
	plain := runPhase(f, w, half, o, nil)

	tr := newTracer()
	f.trace(tr)
	st0, hasStore := storeStatsOf(f)
	whole := tr.begin("phase", 0)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	traced := runPhase(f, w, half, o, tr)
	pprof.StopCPUProfile()
	f.trace(nil)
	reportErrors(w, plain)
	reportErrors(w, traced)

	pr, err := parseProfile(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	attrs, top, samples := pr.cpuShares()
	attrs["runtime.allocs_per_mb"] = float64(plain.mallocs) / (float64(max(plain.bytes, 1)) / 1e6)
	attrs["trace.overhead_ratio"] = traced.goodputMBps() / plain.goodputMBps()
	if hasStore {
		st1, _ := storeStatsOf(f)
		attrs["store.hit_ratio"] = ratio(float64(st1.Hits-st0.Hits), float64(st1.Hits-st0.Hits+st1.Misses-st0.Misses))
		attrs["store.evictions"] = float64(st1.Evictions - st0.Evictions)
		attrs["store.read_ops"] = float64(st1.ReadOps - st0.ReadOps)
	}
	tr.finish(whole, attrs)

	path := filepath.Join(o.work, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed))
	if err := tr.writeSpans(path); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	spans, err := readSpans(path)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "%s spans=%d written to %s; cpu profile samples=%d\n", w.name, len(spans), path, samples)
	selfTable(out, spans)
	for _, fs := range top {
		fmt.Fprintf(out, "cpu %-60s %6.3f\n", fs.name, fs.share)
	}
	lm := layerMetrics(spans, w.stallAfter())
	m := map[string]value{}
	for _, d := range perLayer {
		m[d.name] = value{lm[d.name], d.unit}
		fmt.Fprintf(out, "%s %-28s %14.4f %-5s %s\n", w.name, d.name, lm[d.name], d.unit, d.prediction())
	}
	wrong := plain.wrong + traced.wrong
	return result{
		Correct:   wrong == 0,
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   m,
	}, nil
}

func seconds(o options) time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

func reportErrors(w workload, p phase) {
	for _, err := range p.firstErrors {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
	}
}

func unitOf(name string) string {
	for _, d := range endToEnd {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

func storeStatsOf(f fixture) (st store.Stats, ok bool) {
	if s, ok := f.(interface{ storeStats() store.Stats }); ok {
		return s.storeStats(), true
	}
	return st, false
}

func busyOf(f fixture) int64 {
	if s, ok := f.(interface{ busyRefusals() int64 }); ok {
		return s.busyRefusals()
	}
	return 0
}

func engagedTier(f fixture) string {
	if b, ok := f.(*bulkPull); ok {
		if t := b.tier.Load(); t != nil {
			return fmt.Sprintf(" tier_engaged=%v", t)
		}
	}
	return ""
}
