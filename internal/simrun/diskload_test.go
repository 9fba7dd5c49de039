package simrun

import (
	"reflect"
	"testing"
	"time"

	"blastlan/internal/disk"
)

// A thundering herd against one cold cache costs exactly one pass over the
// platter: with the cache at least file-sized, ChunkReads equals the file's
// chunk count no matter how many clients pulled, and the batched read-ahead
// folds that pass into far fewer disk accesses than chunks.
func TestDiskLoadSingleReadPerChunk(t *testing.T) {
	const fileBytes, chunk = 256 << 10, 1 << 10
	sc := DiskLoadScenario{
		Name:      "herd",
		N:         8,
		FileBytes: fileBytes,
		Chunk:     chunk,
		ReadAhead: 7,
		Seed:      42,
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != sc.N || res.Served != sc.N {
		t.Fatalf("completed %d served %d, want %d", res.Completed, res.Served, sc.N)
	}
	chunks := int64(fileBytes / chunk)
	if res.Store.ChunkReads != chunks {
		t.Errorf("ChunkReads = %d, want exactly %d (one disk pass for %d clients)",
			res.Store.ChunkReads, chunks, sc.N)
	}
	if want := chunks / 8; res.Store.ReadOps != want {
		t.Errorf("ReadOps = %d, want %d (8-chunk spans)", res.Store.ReadOps, want)
	}
	if res.Store.Hits == 0 {
		t.Error("no cache hits across 8 pullers of one file")
	}
	if res.Store.Evictions != 0 {
		t.Errorf("evictions = %d with an ample cache", res.Store.Evictions)
	}
}

// Same seed, same bits: the whole result — every virtual timestamp and
// every store counter — reproduces exactly across runs.
func TestDiskLoadDeterministic(t *testing.T) {
	sc := DiskLoadScenario{
		Name:       "det",
		N:          6,
		FileBytes:  128 << 10,
		Chunk:      1 << 10,
		Spacing:    3 * time.Millisecond,
		CacheBytes: 32 << 10, // pressure: evictions must reproduce too
		ReadAhead:  7,
		Seed:       7,
	}
	a, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("runs diverged:\n a = %+v\n b = %+v", a, b)
	}
	if a.Completed != sc.N {
		t.Fatalf("completed %d, want %d", a.Completed, sc.N)
	}
	if a.Store.Evictions == 0 {
		t.Error("no evictions with a cache a quarter of the file")
	}
	if a.Store.ChunkReads <= int64(128<<10/(1<<10)) {
		t.Errorf("ChunkReads = %d: eviction pressure should force re-reads", a.Store.ChunkReads)
	}

	// Golden pin: two runs of one build agreeing says nothing about a
	// change in CLOCK visit order, which would shift which chunks get
	// re-read and so every virtual timestamp. These values were recorded
	// with the original slice-shifting CLOCK ring.
	if a.Makespan != 637452376 {
		t.Errorf("Makespan = %d, want 637452376", int64(a.Makespan))
	}
	st := a.Store
	if st.Evictions != 224 || st.ChunkReads != 256 || st.Hits != 736 || st.Misses != 32 {
		t.Errorf("Store = %+v, want Evictions 224 ChunkReads 256 Hits 736 Misses 32", st)
	}
	golden := []struct{ start, end time.Duration }{
		{0, 225593664},
		{3000000, 225705928},
		{6000000, 225707572},
		{9000000, 225671026},
		{12000000, 637399070},
		{15000000, 637452376},
	}
	if len(a.Clients) != len(golden) {
		t.Fatalf("%d clients, want %d", len(a.Clients), len(golden))
	}
	for i, g := range golden {
		c := a.Clients[i]
		if c.Start != g.start || c.End != g.end || c.Elapsed != g.end-g.start ||
			c.StatBytes != 128<<10 || !c.Completed || !c.ChecksumOK || c.Err != "" {
			t.Errorf("client %d = %+v, want start %d end %d, 128 KiB verified",
				i, c, int64(g.start), int64(g.end))
		}
	}
}

// Cold versus hot through the same store: a late second client pulls the
// whole file from cache and finishes far faster than the first, whose cold
// read is bounded below by the disk model's full-file read time.
func TestDiskLoadColdVsHot(t *testing.T) {
	const fileBytes, chunk, ra = 1 << 20, 1 << 10, 7
	g := disk.FujitsuEagle()
	sc := DiskLoadScenario{
		Name:      "coldhot",
		Disk:      g,
		N:         2,
		FileBytes: fileBytes,
		Chunk:     chunk,
		Spacing:   2 * time.Second, // client 1 arrives after client 0 finishes
		ReadAhead: ra,
		Seed:      3,
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 {
		t.Fatalf("completed %d, want 2", res.Completed)
	}
	cold, hot := res.Clients[0], res.Clients[1]
	// The cold pull cannot beat the platter: its elapsed time is at least
	// the model's cost of reading the file in read-ahead-sized pages.
	diskFloor := g.FileReadTime(fileBytes, (ra+1)*chunk)
	if cold.Elapsed < diskFloor {
		t.Errorf("cold pull took %v, below the disk floor %v", cold.Elapsed, diskFloor)
	}
	if hot.Elapsed*4 > cold.Elapsed {
		t.Errorf("hot pull (%v) not ≫ faster than cold (%v)", hot.Elapsed, cold.Elapsed)
	}
	if res.Store.ChunkReads != int64(fileBytes/chunk) {
		t.Errorf("ChunkReads = %d, want %d (hot client cost zero disk reads)",
			res.Store.ChunkReads, fileBytes/chunk)
	}
}
