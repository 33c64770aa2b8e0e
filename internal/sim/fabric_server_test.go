package sim

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"nucache/internal/fabric"
)

// sweepNDJSON posts a sweep and returns its result lines, index-sorted
// (RunStream emits completion order, which legitimately varies).
func sweepNDJSON(t *testing.T, url, body string) []string {
	t.Helper()
	resp := postJSON(t, url+"/v1/sweep", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(lines)
	return lines
}

// TestDistributedSweepByteIdentical runs the same sweep through a plain
// server and a coordinator-backed server with two in-process fabric
// workers, and requires identical NDJSON (modulo completion order and
// the serving-only "cached" flag, which depends on who computed first).
func TestDistributedSweepByteIdentical(t *testing.T) {
	const body = `{"cores":2,"policies":["LRU","NUcache"],"budget":60000}`

	plain := httptest.NewServer(NewServer(NewScheduler(2, NewCache(64, ""))).Handler())
	t.Cleanup(plain.Close)
	want := sweepNDJSON(t, plain.URL, body)

	co := fabric.NewCoordinator(fabric.Config{
		LeaseTTL:  10 * time.Second,
		Heartbeat: 50 * time.Millisecond,
	})
	t.Cleanup(co.Close)
	sched := NewScheduler(2, NewCache(64, ""))
	dist := httptest.NewServer(NewServer(sched, WithCoordinator(co)).Handler())
	t.Cleanup(dist.Close)

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	for i := 0; i < 2; i++ {
		w := fabric.NewWorker(dist.URL, fabric.WorkerConfig{
			Name:      "sim-test",
			Executors: map[string]fabric.Executor{CellKindSim: SimExecutor()},
		})
		go w.Run(ctx)
	}

	got := sweepNDJSON(t, dist.URL, body)
	if strings.Join(stripCached(got), "\n") != strings.Join(stripCached(want), "\n") {
		t.Fatalf("distributed sweep differs from single-node:\n--- got ---\n%s\n--- want ---\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// stripCached removes the serving-only `"cached":true` marker: whether a
// line was a cache hit depends on scheduling, not on the result.
func stripCached(lines []string) []string {
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i] = strings.ReplaceAll(l, `"cached":true,`, "")
	}
	return out
}

// TestZeroWorkerDistributedServerIdentical asserts a coordinator with
// no workers changes nothing: same NDJSON as a plain server, and no
// request ever blocks on the fabric.
func TestZeroWorkerDistributedServerIdentical(t *testing.T) {
	const body = `{"mixes":["mix2-01"],"policies":["LRU","NUcache"],"budget":60000}`

	plain := httptest.NewServer(NewServer(NewScheduler(2, NewCache(64, ""))).Handler())
	t.Cleanup(plain.Close)
	want := sweepNDJSON(t, plain.URL, body)

	co := fabric.NewCoordinator(fabric.Config{})
	t.Cleanup(co.Close)
	dist := httptest.NewServer(NewServer(NewScheduler(2, NewCache(64, "")), WithCoordinator(co)).Handler())
	t.Cleanup(dist.Close)
	got := sweepNDJSON(t, dist.URL, body)

	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("zero-worker distributed sweep differs:\n--- got ---\n%s\n--- want ---\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if st := co.Stats(); st.RemoteDone != 0 {
		t.Fatalf("zero workers but %d remote completions", st.RemoteDone)
	}
}

func TestCacheShardingKeepsSemantics(t *testing.T) {
	// The memory tier is one exact LRU at every capacity: a large cache
	// keeps Len and lookup semantics, and evicts in exact LRU order.
	c := NewCache(1024, "")
	type v struct{ N int }
	key := func(i int) string {
		return Request{Mix: "mix2-01", Policy: "LRU", Budget: uint64(i + 1)}.Key()
	}
	for i := 0; i < 1000; i++ {
		if err := c.Put(key(i), v{N: i}); err != nil {
			t.Fatal(err)
		}
		if !c.Contains(key(i)) {
			t.Fatalf("key %d missing right after Put", i)
		}
		var got v
		if !c.Get(key(i), &got) || got.N != i {
			t.Fatalf("key %d: got %+v", i, got)
		}
	}
	if c.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", c.Len())
	}
	if c.Contains("absent") {
		t.Fatal("Contains(absent) = true")
	}
	// Touch key 0, then overflow by 25: keys 1..25 are the least
	// recently used and go; key 0 and every later key stay.
	var got v
	c.Get(key(0), &got)
	for i := 1000; i < 1049; i++ {
		_ = c.Put(key(i), v{N: i})
	}
	if c.Len() != 1024 {
		t.Fatalf("Len = %d after overflow, want 1024", c.Len())
	}
	for i := 0; i < 1049; i++ {
		if want := i == 0 || i > 25; c.Contains(key(i)) != want {
			t.Fatalf("key %d resident = %v, want %v", i, !want, want)
		}
	}
}

func TestCacheShardedConcurrentAccess(t *testing.T) {
	// Eight goroutines on disjoint keys of one large cache: nothing
	// lost, race-clean.
	c := NewCache(8192, "")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			type v struct{ N int }
			for i := 0; i < 500; i++ {
				key := Request{Mix: "mix2-01", Policy: "LRU", Budget: uint64(g*1000 + i + 1)}.Key()
				_ = c.Put(key, v{N: i})
				var got v
				c.Get(key, &got)
				c.Contains(key)
				c.Len()
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 4000 {
		t.Fatalf("Len = %d, want 4000", c.Len())
	}
}
