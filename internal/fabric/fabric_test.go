package fabric

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// echoExec is a trivial deterministic executor: payload is the spec
// wrapped in a result object.
func echoExec(_ context.Context, spec json.RawMessage) (json.RawMessage, error) {
	return json.RawMessage(fmt.Sprintf(`{"echo":%s}`, spec)), nil
}

func testCells(n int) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = Cell{
			Key:  fmt.Sprintf("cell-%d", i),
			Kind: "echo",
			Spec: json.RawMessage(fmt.Sprintf(`{"i":%d}`, i)),
		}
	}
	return cells
}

// startPool spins up a coordinator (httptest server) and nw in-process
// workers, returning the coordinator and a cancel that tears it all
// down.
func startPool(t *testing.T, cfg Config, nw int) (*Coordinator, *httptest.Server, context.CancelFunc) {
	t.Helper()
	co := NewCoordinator(cfg)
	srv := httptest.NewServer(co.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < nw; i++ {
		w := NewWorker(srv.URL, WorkerConfig{
			Name:      fmt.Sprintf("t%d", i),
			Executors: map[string]Executor{"echo": echoExec},
		})
		go w.Run(ctx)
	}
	t.Cleanup(func() {
		cancel()
		srv.Close()
		co.Close()
	})
	return co, srv, cancel
}

func TestZeroWorkersClaimsLocallyImmediately(t *testing.T) {
	co := NewCoordinator(Config{})
	defer co.Close()
	co.Offer(testCells(3))

	// With no workers every AwaitOrClaim must return instantly with a
	// local claim — the fabric must be invisible.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3; i++ {
			payload, remote := co.AwaitOrClaim(context.Background(), fmt.Sprintf("cell-%d", i))
			if remote || payload != nil {
				t.Errorf("cell-%d: want local claim, got remote=%v", i, remote)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("AwaitOrClaim blocked with zero workers")
	}

	// Claimed cells are owned: a second claim still says local, and an
	// unknown cell is implicitly local.
	for _, key := range []string{"cell-0", "never-offered"} {
		if payload, remote := co.AwaitOrClaim(context.Background(), key); remote || payload != nil {
			t.Errorf("%s: want local claim, got remote=%v", key, remote)
		}
	}
}

func TestWorkerExecutesOfferedCells(t *testing.T) {
	var mu sync.Mutex
	got := map[string]string{}
	co, _, _ := startPool(t, Config{
		LeaseTTL:  5 * time.Second,
		Heartbeat: 50 * time.Millisecond,
		OnResult: func(key string, payload []byte) {
			mu.Lock()
			got[key] = string(payload)
			mu.Unlock()
		},
	}, 2)
	co.Offer(testCells(8))

	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers completed %d/8 cells", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := `{"echo":{"i":3}}`; got["cell-3"] != want {
		t.Errorf("cell-3 payload = %q, want %q", got["cell-3"], want)
	}
	// AwaitOrClaim on a done cell returns the payload without blocking.
	payload, remote := co.AwaitOrClaim(context.Background(), "cell-3")
	if !remote || string(payload) != `{"echo":{"i":3}}` {
		t.Errorf("AwaitOrClaim(done) = %q, %v", payload, remote)
	}
	if st := co.Stats(); st.RemoteDone != 8 {
		t.Errorf("Stats.RemoteDone = %d, want 8", st.RemoteDone)
	}
}

func TestAwaitOrClaimWaitsOutLeaseThenWins(t *testing.T) {
	// A worker leases a cell and dies; the blocked local claimant must
	// get the cell back when the lease expires, pinned local-only.
	co := NewCoordinator(Config{LeaseTTL: 150 * time.Millisecond, Heartbeat: 30 * time.Millisecond})
	defer co.Close()
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	co.Offer(testCells(1))

	// Hand-roll a worker that takes the lease and vanishes.
	var join joinResponse
	postJSON(t, srv.URL+"/fabric/v1/join", joinRequest{Name: "doomed"}, &join)
	var lease leaseResponse
	postJSON(t, srv.URL+"/fabric/v1/lease", leaseRequest{WorkerID: join.WorkerID}, &lease)
	if lease.Cell.Key != "cell-0" {
		t.Fatalf("leased %q, want cell-0", lease.Cell.Key)
	}

	start := time.Now()
	payload, remote := co.AwaitOrClaim(context.Background(), "cell-0")
	if remote || payload != nil {
		t.Fatalf("want local claim after expiry, got remote=%v", remote)
	}
	if waited := time.Since(start); waited < 100*time.Millisecond {
		t.Errorf("claimant returned after %v — did not wait for the live lease", waited)
	}
}

func TestCorruptResultQuarantinesWorker(t *testing.T) {
	events := make(chan Event, 64)
	co := NewCoordinator(Config{
		LeaseTTL:  5 * time.Second,
		Heartbeat: 50 * time.Millisecond,
		OnEvent:   func(ev Event) { events <- ev },
	})
	defer co.Close()
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	co.Offer(testCells(1))

	var join joinResponse
	postJSON(t, srv.URL+"/fabric/v1/join", joinRequest{Name: "poison"}, &join)
	var lease leaseResponse
	postJSON(t, srv.URL+"/fabric/v1/lease", leaseRequest{WorkerID: join.WorkerID}, &lease)

	// Send a payload whose checksum doesn't match the envelope.
	bad := resultRequest{
		WorkerID: join.WorkerID, Key: lease.Cell.Key, Seq: lease.Seq,
		SHA256:  "deadbeef",
		Payload: json.RawMessage(`{"tampered":true}`),
	}
	status := postStatus(t, srv.URL+"/fabric/v1/result", bad)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt result status = %d, want 422", status)
	}

	// Worker must now be quarantined: further leases 404.
	if st := postStatus(t, srv.URL+"/fabric/v1/lease", leaseRequest{WorkerID: join.WorkerID}); st != http.StatusNotFound {
		t.Errorf("quarantined worker lease status = %d, want 404", st)
	}
	if st := co.Stats(); st.Quarantined != 1 {
		t.Errorf("Stats.Quarantined = %d, want 1", st.Quarantined)
	}
	// The cell must be recoverable locally.
	if payload, remote := co.AwaitOrClaim(context.Background(), "cell-0"); remote || payload != nil {
		t.Errorf("cell after quarantine: want local claim, got remote=%v", remote)
	}
	assertEvent(t, events, "quarantine")
}

func TestStaleSeqRejectedWithoutQuarantine(t *testing.T) {
	// Heartbeat interval much longer than the lease TTL, so the lease
	// expires while the worker is still comfortably alive.
	co := NewCoordinator(Config{LeaseTTL: 100 * time.Millisecond, Heartbeat: 2 * time.Second, MaxReassign: 10})
	defer co.Close()
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	co.Offer(testCells(1))

	var join joinResponse
	postJSON(t, srv.URL+"/fabric/v1/join", joinRequest{Name: "slow"}, &join)
	var lease leaseResponse
	postJSON(t, srv.URL+"/fabric/v1/lease", leaseRequest{WorkerID: join.WorkerID}, &lease)

	// Let the lease expire (reap tick is clamped to ≤1s), then post the
	// now-stale result.
	deadline := time.Now().Add(5 * time.Second)
	for co.Stats().Leased != 0 {
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		time.Sleep(20 * time.Millisecond)
	}

	payload := json.RawMessage(`{"fine":true}`)
	sum := sha256.Sum256(payload)
	stale := resultRequest{
		WorkerID: join.WorkerID, Key: lease.Cell.Key, Seq: lease.Seq,
		SHA256: hex.EncodeToString(sum[:]), Payload: payload,
	}
	if st := postStatus(t, srv.URL+"/fabric/v1/result", stale); st != http.StatusConflict {
		t.Fatalf("stale result status = %d, want 409", st)
	}
	// One blown lease is a strike, not a quarantine: the worker may
	// still lease (the expired cell itself is backing off, so just
	// check identity is alive via heartbeat).
	if st := postStatus(t, srv.URL+"/fabric/v1/heartbeat", heartbeatRequest{WorkerID: join.WorkerID}); st != http.StatusNoContent {
		t.Errorf("worker heartbeat after one strike = %d, want 204", st)
	}
}

func TestDeadWorkerLeasesExpireAndReassign(t *testing.T) {
	var mu sync.Mutex
	got := map[string]bool{}
	co := NewCoordinator(Config{
		LeaseTTL:  10 * time.Second, // long: only death should free cells
		Heartbeat: 30 * time.Millisecond,
		OnResult: func(key string, _ []byte) {
			mu.Lock()
			got[key] = true
			mu.Unlock()
		},
	})
	defer co.Close()
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	co.Offer(testCells(2))

	// Worker A joins, leases a cell, then never beats again.
	var joinA joinResponse
	postJSON(t, srv.URL+"/fabric/v1/join", joinRequest{Name: "ghost"}, &joinA)
	var lease leaseResponse
	postJSON(t, srv.URL+"/fabric/v1/lease", leaseRequest{WorkerID: joinA.WorkerID}, &lease)

	// A live worker B should eventually pick up both cells once A is
	// declared dead.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wb := NewWorker(srv.URL, WorkerConfig{Name: "live", Executors: map[string]Executor{"echo": echoExec}})
	go wb.Run(ctx)

	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("completed %d/2 cells after worker death", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Ghost's identity must be dead.
	if st := postStatus(t, srv.URL+"/fabric/v1/heartbeat", heartbeatRequest{WorkerID: joinA.WorkerID}); st != http.StatusNotFound {
		t.Errorf("dead worker heartbeat = %d, want 404", st)
	}
}

func TestReassignmentBoundPinsLocal(t *testing.T) {
	co := NewCoordinator(Config{LeaseTTL: 60 * time.Millisecond, Heartbeat: 20 * time.Millisecond, MaxReassign: 2})
	defer co.Close()
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	co.Offer(testCells(1))

	// Burn the cell's reassignment budget with leases that always
	// expire (fresh worker identity each time to dodge quarantine).
	for i := 0; i < 2; i++ {
		var join joinResponse
		postJSON(t, srv.URL+"/fabric/v1/join", joinRequest{Name: "churn"}, &join)
		var lease leaseResponse
		deadline := time.Now().Add(5 * time.Second)
		for {
			st := postStatus2(t, srv.URL+"/fabric/v1/lease", leaseRequest{WorkerID: join.WorkerID}, &lease)
			if st == http.StatusOK {
				break
			}
			if st == http.StatusNotFound || time.Now().After(deadline) {
				t.Fatalf("churn worker %d could not lease (status %d)", i, st)
			}
			time.Sleep(10 * time.Millisecond) // backoff window
		}
		time.Sleep(150 * time.Millisecond) // blow the lease
	}

	// Budget exhausted: the cell must be pinned local-only and never
	// leased again, even by a fresh healthy worker.
	var join joinResponse
	postJSON(t, srv.URL+"/fabric/v1/join", joinRequest{Name: "late"}, &join)
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		var lease leaseResponse
		if st := postStatus2(t, srv.URL+"/fabric/v1/lease", leaseRequest{WorkerID: join.WorkerID}, &lease); st == http.StatusOK {
			t.Fatalf("cell leased again after exhausting reassignment bound")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if payload, remote := co.AwaitOrClaim(context.Background(), "cell-0"); remote || payload != nil {
		t.Errorf("pinned cell: want local claim, got remote=%v", remote)
	}
}

func TestOfferIdempotentAndMarkDone(t *testing.T) {
	co := NewCoordinator(Config{})
	defer co.Close()
	cells := testCells(2)
	co.Offer(cells)
	co.Offer(cells) // duplicate offer must not duplicate queue entries
	if st := co.Stats(); st.Cells != 2 {
		t.Fatalf("Stats.Cells = %d after duplicate Offer, want 2", st.Cells)
	}
	co.MarkDone("cell-1")
	if st := co.Stats(); st.Local != 1 {
		t.Errorf("Stats.Local = %d after MarkDone, want 1", st.Local)
	}
}

func TestJitteredBackoffBounds(t *testing.T) {
	for attempt := 1; attempt <= 12; attempt++ {
		d := jitteredBackoff(50*time.Millisecond, time.Second, attempt)
		if d < 25*time.Millisecond || d > time.Second {
			t.Errorf("attempt %d: backoff %v out of [25ms, 1s]", attempt, d)
		}
	}
	// Degenerate inputs must still return something sane.
	if d := jitteredBackoff(0, 0, 1); d <= 0 {
		t.Errorf("zero-config backoff = %v, want > 0", d)
	}
}

// --- helpers -----------------------------------------------------------

func postJSON(t *testing.T, url string, in, out any) {
	t.Helper()
	if st := postStatus2(t, url, in, out); st < 200 || st >= 300 {
		t.Fatalf("POST %s: status %d", url, st)
	}
}

func postStatus(t *testing.T, url string, in any) int {
	t.Helper()
	return postStatus2(t, url, in, nil)
}

func postStatus2(t *testing.T, url string, in, out any) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func assertEvent(t *testing.T, events <-chan Event, typ string) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev := <-events:
			if ev.Type == typ {
				return
			}
		case <-deadline:
			t.Fatalf("no %q event observed", typ)
		}
	}
}
