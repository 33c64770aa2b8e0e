package fabric

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"time"
)

// Config tunes a Coordinator. The zero value is usable; fields default
// as documented.
type Config struct {
	// LeaseTTL is how long a worker holds a cell before the reaper takes
	// it back (default 30s). It bounds how long a dead worker can stall
	// a waiting local claimant.
	LeaseTTL time.Duration
	// Heartbeat is the interval workers are told to beat at (default
	// 3s). A worker missing deadBeats consecutive intervals is declared
	// dead and its leases expire immediately.
	Heartbeat time.Duration
	// MaxReassign bounds how many times one cell may be re-leased after
	// failures before it is pinned local-only (default 3). The bound is
	// the liveness guarantee: no cell can ping-pong between dying
	// workers forever.
	MaxReassign int
	// OnResult is called (outside the coordinator lock, in arrival
	// order) with each verified remote payload; the sweep uses it to
	// seed the result cache and journal the completion.
	OnResult func(key string, payload []byte)
	// OnEvent observes state transitions (lease grants, expiries,
	// quarantines); the sweep journals them. Called outside the lock.
	OnEvent func(Event)
	// Logger receives operational chatter; nil discards it.
	Logger *log.Logger
}

// Cell lifecycle inside the coordinator. A cell is created pending by
// Offer, bounces between pending and leased as workers come and go, and
// terminates in exactly one of stateLocal (the local sweep computes and
// journals it) or stateDone (a verified remote payload arrived and was
// journaled via OnResult). The local/remote split is what keeps the
// journal at exactly one completion record per cell.
type cellState int

const (
	statePending cellState = iota // offered, waiting for a worker or local claim
	stateLeased                   // held by a worker under deadline
	stateLocal                    // claimed by the local sweep; fabric is done with it
	stateDone                     // verified remote result accepted
)

type cellEntry struct {
	cell  Cell
	state cellState

	// Lease bookkeeping (valid while stateLeased).
	worker   string
	seq      uint64 // generation stamp; a result with a stale seq is rejected
	deadline time.Time

	// Failure bookkeeping.
	reassigns int       // completed lease failures so far
	notBefore time.Time // earliest next lease (jittered exponential backoff)
	localOnly bool      // reassignment bound hit: never lease again

	payload []byte // verified result (stateDone)

	// changed is closed and replaced on every state transition, so
	// AwaitOrClaim can wait on a leased cell without polling.
	changed chan struct{}

	waiters int // local claimants blocked in AwaitOrClaim
}

type workerEntry struct {
	name        string
	lastBeat    time.Time
	strikes     int // lease expiries attributed to this worker
	quarantined bool
	dead        bool
}

// deadBeats is how many missed heartbeat intervals declare a worker
// dead, and strikeLimit how many blown leases quarantine it. Two
// strikes — not one — so a single cell lost to a transient stall
// doesn't eject an otherwise healthy worker.
const (
	deadBeats   = 3
	strikeLimit = 2
)

// Coordinator owns the lease state machine for one sweep. It is safe
// for concurrent use by the HTTP handler, the reaper, and the local
// sweep's claim/await calls.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	cells   map[string]*cellEntry
	queue   []string // offer order; workers lease from the back
	workers map[string]*workerEntry
	nextID  uint64
	closed  bool

	reapStop chan struct{}
	reapDone chan struct{}
}

// NewCoordinator starts a coordinator (and its background reaper) with
// the given config. Close it when the sweep ends.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 3 * time.Second
	}
	if cfg.MaxReassign <= 0 {
		cfg.MaxReassign = 3
	}
	c := &Coordinator{
		cfg:      cfg,
		cells:    make(map[string]*cellEntry),
		workers:  make(map[string]*workerEntry),
		reapStop: make(chan struct{}),
		reapDone: make(chan struct{}),
	}
	go c.reapLoop()
	return c
}

// Close stops the reaper and wakes every waiter. Cells still leased are
// handed back to their local claimants (AwaitOrClaim returns "claim
// it yourself").
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	for _, e := range c.cells {
		c.broadcastLocked(e)
	}
	c.mu.Unlock()
	close(c.reapStop)
	<-c.reapDone
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logger != nil {
		c.cfg.Logger.Printf(format, args...)
	}
}

func (c *Coordinator) emit(ev Event) {
	if c.cfg.OnEvent != nil {
		c.cfg.OnEvent(ev)
	}
}

// broadcastLocked wakes everything waiting on e and re-arms the channel.
func (c *Coordinator) broadcastLocked(e *cellEntry) {
	if e.changed != nil {
		close(e.changed)
	}
	e.changed = make(chan struct{})
}

// Offer makes cells available for remote lease. Already-known keys are
// ignored (idempotent), so re-offering on a resumed sweep is safe. Cells
// are leased from the BACK of the offer queue while the local sweep
// consumes jobs front-to-back — the two meet in the middle instead of
// racing for the same cell.
func (c *Coordinator) Offer(cells []Cell) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cell := range cells {
		if _, ok := c.cells[cell.Key]; ok {
			continue
		}
		c.cells[cell.Key] = &cellEntry{cell: cell, changed: make(chan struct{})}
		c.queue = append(c.queue, cell.Key)
	}
}

// MarkDone records an out-of-band completion (e.g. the cell was already
// in the result cache from a resumed journal) so it is never leased.
func (c *Coordinator) MarkDone(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.cells[key]; ok && e.state == statePending {
		e.state = stateLocal
		c.broadcastLocked(e)
	}
}

// AwaitOrClaim resolves one cell for the local sweep:
//
//   - pending / local / unknown ⇒ claims it locally and returns
//     (nil, false): caller computes and journals as it always has.
//   - done ⇒ returns the verified remote payload, true.
//   - leased ⇒ blocks until the lease resolves. A completed lease
//     returns the payload; an expired one hands the cell to this waiter
//     (waiters outrank re-lease — a local CPU is already parked on it).
//
// A canceled ctx or a closed coordinator returns (nil, false): the
// caller claims the cell and the normal local path takes over, so
// fabric shutdown can never wedge a sweep.
func (c *Coordinator) AwaitOrClaim(ctx context.Context, key string) ([]byte, bool) {
	c.mu.Lock()
	for {
		e, ok := c.cells[key]
		if !ok || c.closed {
			c.mu.Unlock()
			return nil, false
		}
		switch e.state {
		case statePending, stateLocal:
			e.state = stateLocal
			c.broadcastLocked(e)
			c.mu.Unlock()
			return nil, false
		case stateDone:
			p := e.payload
			c.mu.Unlock()
			return p, true
		}
		// Leased: wait for the next transition.
		ch := e.changed
		e.waiters++
		c.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			c.mu.Lock()
			e.waiters--
			c.mu.Unlock()
			return nil, false
		}
		c.mu.Lock()
		e.waiters--
	}
}

// Stats is a point-in-time snapshot for /readyz and the end-of-sweep
// summary.
type Stats struct {
	Cells       int `json:"cells"`
	Pending     int `json:"pending"`
	Leased      int `json:"leased"`
	Local       int `json:"local"`
	RemoteDone  int `json:"remote_done"`
	Workers     int `json:"workers"`
	LiveWorkers int `json:"live_workers"`
	Quarantined int `json:"quarantined"`
}

func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var s Stats
	s.Cells = len(c.cells)
	for _, e := range c.cells {
		switch e.state {
		case statePending:
			s.Pending++
		case stateLeased:
			s.Leased++
		case stateLocal:
			s.Local++
		case stateDone:
			s.RemoteDone++
		}
	}
	s.Workers = len(c.workers)
	for _, w := range c.workers {
		if w.quarantined {
			s.Quarantined++
		} else if !w.dead {
			s.LiveWorkers++
		}
	}
	return s
}

// --- HTTP protocol -----------------------------------------------------

// Handler returns the coordinator's HTTP surface, rooted at
// /fabric/v1/, for mounting into the host process's mux.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fabric/v1/join", c.handleJoin)
	mux.HandleFunc("POST /fabric/v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /fabric/v1/lease", c.handleLease)
	mux.HandleFunc("POST /fabric/v1/result", c.handleResult)
	return mux
}

// maxBody bounds fabric request bodies. Result payloads are MixMetrics
// or sim results — kilobytes — so 8MB is generous headroom, not a limit
// anyone should meet.
const maxBody = 8 << 20

func decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody))
	if err == nil {
		err = json.Unmarshal(body, into)
	}
	if err != nil {
		http.Error(w, fmt.Sprintf("fabric: bad request: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if !decodeBody(w, r, &req) {
		return
	}
	c.mu.Lock()
	c.nextID++
	id := fmt.Sprintf("w%d-%s", c.nextID, req.Name)
	c.workers[id] = &workerEntry{name: req.Name, lastBeat: time.Now()}
	c.mu.Unlock()
	WorkersJoined.Add(1)
	c.logf("fabric: worker %s joined", id)
	c.emit(Event{Type: "join", Worker: id})
	writeJSON(w, joinResponse{
		WorkerID:    id,
		LeaseMS:     c.cfg.LeaseTTL.Milliseconds(),
		HeartbeatMS: c.cfg.Heartbeat.Milliseconds(),
		PollMS:      (c.cfg.Heartbeat / 2).Milliseconds(),
	})
}

// checkWorkerLocked validates the caller. Quarantined and dead workers
// get 404 so their client loop stops (or rejoins as a fresh identity —
// which is fine: a rejoined worker starts with a clean strike record
// but also zero leases).
func (c *Coordinator) checkWorkerLocked(id string) (*workerEntry, bool) {
	wk, ok := c.workers[id]
	if !ok || wk.quarantined || wk.dead {
		return nil, false
	}
	return wk, true
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !decodeBody(w, r, &req) {
		return
	}
	c.mu.Lock()
	wk, ok := c.checkWorkerLocked(req.WorkerID)
	if ok {
		wk.lastBeat = time.Now()
	}
	c.mu.Unlock()
	if !ok {
		http.Error(w, "fabric: unknown worker", http.StatusNotFound)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	now := time.Now()
	c.mu.Lock()
	wk, ok := c.checkWorkerLocked(req.WorkerID)
	if !ok {
		c.mu.Unlock()
		http.Error(w, "fabric: unknown worker", http.StatusNotFound)
		return
	}
	wk.lastBeat = now
	// Scan the offer queue from the back: the local sweep consumes
	// front-to-back, so the two meet in the middle instead of fighting
	// over the same cells.
	var granted *cellEntry
	for i := len(c.queue) - 1; i >= 0; i-- {
		e := c.cells[c.queue[i]]
		if e.state == statePending && !e.localOnly && !now.Before(e.notBefore) {
			granted = e
			break
		}
	}
	if granted == nil {
		c.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
		return
	}
	granted.state = stateLeased
	granted.worker = req.WorkerID
	granted.seq++
	granted.deadline = now.Add(c.cfg.LeaseTTL)
	resp := leaseResponse{Cell: granted.cell, Seq: granted.seq, LeaseMS: c.cfg.LeaseTTL.Milliseconds()}
	c.broadcastLocked(granted)
	c.mu.Unlock()

	LeasesGranted.Add(1)
	c.logf("fabric: leased %s to %s (seq %d)", resp.Cell.Key, req.WorkerID, resp.Seq)
	c.emit(Event{Type: "lease", Key: resp.Cell.Key, Worker: req.WorkerID})
	writeJSON(w, resp)
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var req resultRequest
	if !decodeBody(w, r, &req) {
		return
	}

	// Verify the integrity envelope before taking the lock: a corrupt
	// payload must never race into the sweep.
	sum := sha256.Sum256(req.Payload)
	envelopeOK := hex.EncodeToString(sum[:]) == req.SHA256 && json.Valid(req.Payload)

	c.mu.Lock()
	wk, wkOK := c.checkWorkerLocked(req.WorkerID)
	if !wkOK {
		c.mu.Unlock()
		ResultsRejected.Add(1)
		http.Error(w, "fabric: unknown worker", http.StatusNotFound)
		return
	}
	wk.lastBeat = time.Now()
	e, ok := c.cells[req.Key]
	if !ok || e.state != stateLeased || e.worker != req.WorkerID || e.seq != req.Seq {
		// A stale lease (expired and reassigned under the worker) is a
		// normal race, not malice: reject the result, keep the worker.
		c.mu.Unlock()
		ResultsRejected.Add(1)
		c.logf("fabric: rejected stale result for %s from %s", req.Key, req.WorkerID)
		c.emit(Event{Type: "reject", Key: req.Key, Worker: req.WorkerID})
		http.Error(w, "fabric: stale lease", http.StatusConflict)
		return
	}
	if !envelopeOK {
		// The holder of a live lease returned garbage: that is a
		// poisoned worker. Quarantine it and put the cell back.
		wk.quarantined = true
		c.expireLeasesOfLocked(req.WorkerID, time.Now())
		c.mu.Unlock()
		ResultsRejected.Add(1)
		WorkersQuarantined.Add(1)
		c.logf("fabric: quarantined %s: corrupt result for %s", req.WorkerID, req.Key)
		c.emit(Event{Type: "reject", Key: req.Key, Worker: req.WorkerID})
		c.emit(Event{Type: "quarantine", Worker: req.WorkerID})
		http.Error(w, "fabric: corrupt result", http.StatusUnprocessableEntity)
		return
	}
	e.state = stateDone
	e.payload = req.Payload
	c.broadcastLocked(e)
	c.mu.Unlock()

	ResultsAccepted.Add(1)
	if c.cfg.OnResult != nil {
		c.cfg.OnResult(req.Key, req.Payload)
	}
	c.emit(Event{Type: "complete", Key: req.Key, Worker: req.WorkerID})
	w.WriteHeader(http.StatusNoContent)
}

// --- reaper ------------------------------------------------------------

// expireLeasesOfLocked returns every cell leased by worker id to the
// pool (pending, with backoff) or to a waiting local claimant. Caller
// holds c.mu and is responsible for the worker's own bookkeeping.
func (c *Coordinator) expireLeasesOfLocked(id string, now time.Time) (expired []string) {
	for key, e := range c.cells {
		if e.state == stateLeased && e.worker == id {
			c.expireCellLocked(e, now)
			expired = append(expired, key)
		}
	}
	return expired
}

// expireCellLocked moves one leased cell back toward execution after a
// lease failure. Waiting local claimants outrank re-lease; otherwise
// the cell re-enters the pool after a jittered exponential backoff,
// and past MaxReassign failures it is pinned local-only.
func (c *Coordinator) expireCellLocked(e *cellEntry, now time.Time) {
	e.state = statePending
	e.worker = ""
	e.reassigns++
	LeasesExpired.Add(1)
	if e.waiters > 0 || e.reassigns >= c.cfg.MaxReassign {
		// A parked local CPU (or an exhausted retry budget) means this
		// cell's fastest path is the local sweep.
		e.localOnly = true
	} else {
		CellsReassigned.Add(1)
		e.notBefore = now.Add(jitteredBackoff(c.cfg.Heartbeat, c.cfg.LeaseTTL, e.reassigns))
	}
	c.broadcastLocked(e)
}

func (c *Coordinator) reapLoop() {
	defer close(c.reapDone)
	// Tick fast enough to notice a blown lease promptly but without
	// busy-spinning at the aggressive heartbeats the chaos tests use.
	tick := c.cfg.Heartbeat / 2
	tick = min(max(tick, 10*time.Millisecond), time.Second)
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.reapStop:
			return
		case now := <-t.C:
			c.reap(now)
		}
	}
}

func (c *Coordinator) reap(now time.Time) {
	type expiry struct {
		key, worker string
	}
	var expired []expiry
	var died, quarantined []string

	c.mu.Lock()
	// Workers that stopped heartbeating are dead; every lease they hold
	// expires at once rather than waiting out the lease TTL.
	for id, wk := range c.workers {
		if wk.dead || wk.quarantined {
			continue
		}
		if now.Sub(wk.lastBeat) > time.Duration(deadBeats)*c.cfg.Heartbeat {
			wk.dead = true
			died = append(died, id)
			for _, key := range c.expireLeasesOfLocked(id, now) {
				expired = append(expired, expiry{key, id})
			}
			wk.strikes += 999 // dead workers never rejoin under this identity
		}
	}
	// Individually expired leases (worker alive but slow or stuck on
	// this one cell).
	for key, e := range c.cells {
		if e.state == stateLeased && now.After(e.deadline) {
			id := e.worker
			c.expireCellLocked(e, now)
			expired = append(expired, expiry{key, id})
			if wk, ok := c.workers[id]; ok && !wk.dead && !wk.quarantined {
				wk.strikes++
				if wk.strikes >= strikeLimit {
					wk.quarantined = true
					quarantined = append(quarantined, id)
				}
			}
		}
	}
	c.mu.Unlock()

	for _, id := range died {
		c.logf("fabric: worker %s dead (missed %d heartbeats)", id, deadBeats)
		c.emit(Event{Type: "dead", Worker: id})
	}
	for _, x := range expired {
		c.logf("fabric: lease on %s from %s expired", x.key, x.worker)
		c.emit(Event{Type: "expire", Key: x.key, Worker: x.worker})
	}
	for _, id := range quarantined {
		WorkersQuarantined.Add(1)
		c.logf("fabric: quarantined %s after %d blown leases", id, strikeLimit)
		c.emit(Event{Type: "quarantine", Worker: id})
	}
}
