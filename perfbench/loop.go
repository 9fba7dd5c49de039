package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

// errVerify marks a request whose output failed verification, as opposed
// to one that failed in transport.
var errVerify = errors.New("verification failed")

func verifyErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errVerify, fmt.Sprintf(format, args...))
}

// client is one closed-loop client: it sends its next request only after
// the previous one completed.
type client struct {
	index   int
	clients int // in the phase
	rng     *rand.Rand
	seq     int
	tr      *tracer
	span    uint64 // the request span in flight, the parent of call spans
	skew    uint16 // see options.skew
}

// nextID returns a transfer id unique across the phase's clients and
// requests. Stripes of one request take consecutive ids, so ids step by 4.
func (c *client) nextID() uint32 {
	c.seq++
	return uint32((c.seq*c.clients+c.index)*4 + 1)
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// call times one call into the program as a child of the request span.
func (c *client) call(name string, fn func() map[string]float64) {
	s := c.tr.begin(name, c.span)
	attrs := fn()
	c.tr.finish(s, attrs)
}

// fixture is a workload set up and ready to serve requests.
type fixture interface {
	// request performs client c's next operation and returns the payload
	// bytes it verified.
	request(c *client) (int64, error)
	// trace switches the server-side hooks to t (nil: untraced).
	trace(t *tracer)
	close()
}

// phase is what one measured phase observed.
type phase struct {
	wall        time.Duration
	cpu         time.Duration // user+sys of the whole process
	reqs        []reqRecord
	bytes       int64 // verified payload bytes
	attempted   int
	failed      int
	wrong       int // of failed, those that failed verification
	stalls      int // requests lasting at least the stall threshold
	mallocs     uint64
	firstErrors []error
}

// reqRecord is one request: when it ran, relative to the phase's start,
// and the payload bytes it verified (0 if it failed).
type reqRecord struct {
	start, end time.Duration
	bytes      int64
}

// runPhase drives w's clients closed-loop against f for d and verifies
// every output.
func runPhase(f fixture, w workload, d time.Duration, o options, tr *tracer) phase {
	stallAfter := w.stallAfter()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()

	var mu sync.Mutex
	var p phase
	record := func(t0, t1 time.Time, n int64, err error) {
		mu.Lock()
		defer mu.Unlock()
		p.attempted++
		if t1.Sub(t0) >= stallAfter {
			p.stalls++
		}
		if err != nil {
			n = 0
			p.failed++
			if errors.Is(err, errVerify) {
				p.wrong++
			}
			if len(p.firstErrors) < 5 {
				p.firstErrors = append(p.firstErrors, err)
			}
		}
		p.bytes += n
		p.reqs = append(p.reqs, reqRecord{t0.Sub(start), t1.Sub(start), n})
	}
	var wg sync.WaitGroup
	for i := 0; i < w.clients; i++ {
		c := &client{index: i, clients: w.clients, rng: newRand(o.seed*1000003 + int64(i)), tr: tr, skew: o.skew}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				rs := tr.begin("request", 0)
				c.span = rs.ID
				t0 := time.Now()
				n, err := f.request(c)
				t1 := time.Now()
				tr.finish(rs, nil)
				record(t0, t1, n, err)
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	return p
}

// latencies returns every request's duration in ms, failed ones included.
func (p phase) latencies() []float64 {
	out := make([]float64, len(p.reqs))
	for i, r := range p.reqs {
		out[i] = float64(r.end-r.start) / 1e6
	}
	return out
}

// goodputMBps is the median over one-second windows of the verified bytes
// per second, each request's bytes spread evenly over its duration. The
// median keeps a rare stall (a lost tail waiting out Tr) or a burst of
// load from elsewhere on the host from setting the whole run's figure;
// stalls still show in the latency tail and session.req_stalls.
func (p phase) goodputMBps() float64 {
	n := max(1, int(p.wall/time.Second))
	win := p.wall / time.Duration(n)
	bytes := make([]float64, n)
	for _, r := range p.reqs {
		if r.bytes == 0 || r.end <= r.start {
			continue
		}
		perNs := float64(r.bytes) / float64(r.end-r.start)
		for k := int(r.start / win); k < n && time.Duration(k)*win < r.end; k++ {
			lo, hi := max(r.start, time.Duration(k)*win), min(r.end, time.Duration(k+1)*win)
			bytes[k] += perNs * float64(hi-lo)
		}
	}
	for k := range bytes {
		bytes[k] /= win.Seconds() * 1e6
	}
	return quantile(bytes, 0.5)
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB is the process's peak resident set.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile is the q-quantile of xs by linear interpolation (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
