package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// lastResult parses the JSON result on the last line of a run's output.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

func shortOptions(t *testing.T) options {
	return options{seed: 3, seconds: 1, work: t.TempDir(), root: ".."}
}

// A short run of every workload prints every metric with its unit and
// fails nothing.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name + "/untraced"
			want := endToEnd
			if traced {
				name, want = w.name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				code := execute([]workload{w}, shortOptions(t), traced, &out)
				res := lastResult(t, out.String())
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("exit %d, result %+v\n%s", code, res, out.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					v, ok := res.Metrics[d.name]
					if !ok || v.Unit != d.unit || math.IsNaN(v.Value) {
						t.Errorf("metric %s = %+v, want unit %q", d.name, v, d.unit)
					}
				}
				if !traced {
					for _, d := range reportOnly {
						if !strings.Contains(out.String(), d.name) {
							t.Errorf("report lacks %s", d.name)
						}
					}
					if !strings.Contains(out.String(), "failed_ratio           0.0000 ratio") {
						t.Errorf("failed_ratio is not 0:\n%s", out.String())
					}
				}
			})
		}
	}
}

// A wrong reference makes every request fail verification, the result
// incorrect and the exit status non-zero.
func TestWrongReferenceIsCaught(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := shortOptions(t)
			o.skew = 1
			var out bytes.Buffer
			code := execute([]workload{w}, o, false, &out)
			res := lastResult(t, out.String())
			if code == 0 || res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
				t.Fatalf("exit %d, result %+v: want every request to fail verification", code, res)
			}
		})
	}
}

// The metric table here and BENCHMARK.json name the same metrics and
// workloads.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s here", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v here", kind, i, g, d)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},
		{ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 2, Start: 12, End: 14},
	}
	self := selfTimes(spans)
	if self[1] != 50 || self[2] != 18 || self[3] != 30 || self[5] != 2 {
		t.Errorf("self times %v", self)
	}
}

func TestCPUBucket(t *testing.T) {
	for fn, want := range map[string]string{
		"blastlan/internal/wire.sumWords":             "wire",
		"blastlan/internal/udplan.(*Endpoint).Recv":   "udplan",
		"internal/runtime/syscall.Syscall6":           "syscall",
		"syscall.RawSyscall6":                         "syscall",
		"blastlan/internal/core.SeededSource.func1":   "core",
		"blastlan/internal/simrun.LoadScenario.Run":   "sim",
		"blastlan/internal/core.g[go.shape.*uint8_0]": "core",
		"runtime.memmove":                             "runtime",
		"encoding/binary.bigEndian.Uint64":            "other",
	} {
		if got := cpuBucket(fn); got != want {
			t.Errorf("cpuBucket(%q) = %s, want %s", fn, got, want)
		}
	}
}

// A real CPU profile decodes and its shares sum to one.
func TestCPUShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profile unavailable:", err)
	}
	x := uint64(1)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	shares, top, samples := p.cpuShares()
	if samples == 0 {
		t.Skipf("no samples (x=%d)", x)
	}
	var total float64
	for k, v := range shares {
		if strings.HasPrefix(k, "cpu_share.") {
			total += v
		}
	}
	if math.Abs(total-1) > 1e-9 || len(top) == 0 {
		t.Errorf("shares sum to %v, top %v", total, top)
	}
}
