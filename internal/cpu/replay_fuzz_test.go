package cpu

// FuzzMultiReplayGrid extends the FuzzFilteredDecode family one layer
// up: arbitrary (valid and bit-flipped) hand-built tapes are replayed by
// a three-cell policy grid (LRU, DRRIP, UCP), one single-policy
// ReplaySystem per cell over the same tape. The contract under
// corruption: Run returns an error with nil results — never a panic —
// and replaying the same bytes twice under one policy gives the same
// outcome (results or failure). FuzzMultiReplayGridParallel holds the
// same contract with the grid's cells replaying the tape concurrently.

import (
	"reflect"
	"sync"
	"testing"

	"nucache/internal/cache"
	"nucache/internal/policy"
	"nucache/internal/trace"
)

func fuzzConfig() Config {
	return Config{
		Cores:      1,
		L1:         cache.Config{SizeBytes: 2 << 10, Ways: 2, LineBytes: 64},
		LLC:        cache.Config{SizeBytes: 16 << 10, Ways: 4, LineBytes: 64},
		L1Latency:  1,
		LLCLatency: 10,
		MemLatency: 100,
	}
}

// splitmix64 is the fuzz harness's event-field generator: one uint64
// seed expands into a deterministic tape.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// buildFuzzTape hand-builds a complete tape: events derived from seed,
// a record crossing at crossAfter, an exhaustion crossing at the end,
// and optionally one flipped byte in the packed buffer. decCount stays
// zero, so every replay stream-decodes the packed buffer — the path
// that parses the (possibly corrupt) bytes.
func buildFuzzTape(cfg Config, nEvents, seed, crossAfter uint64, onEvent bool, mutPos, mutXor uint64) *Tape {
	ft := &trace.FilteredTrace{}
	var p uint64
	for i := uint64(0); i < nEvents; i++ {
		r := splitmix64(&seed)
		ev := trace.FilteredEvent{
			Addr:     r & (1<<42 - 1) &^ 63,
			PC:       splitmix64(&seed) & (1<<48 - 1),
			CycleGap: splitmix64(&seed) & 0xffff,
			InstrGap: splitmix64(&seed) & 0xff,
			Kind:     trace.Load,
		}
		if r&1 != 0 {
			ev.Kind = trace.Store
		}
		if r&2 != 0 {
			ev.HasWB = true
			ev.WBAddr = splitmix64(&seed) & (1<<40 - 1) &^ 63
			ev.WBPC = splitmix64(&seed) & (1<<48 - 1)
		}
		p += ev.CycleGap
		ft.AppendEvent(ev)
	}
	ft.AppendCrossing(trace.Crossing{
		Kind: trace.CrossRecord, AfterEvents: crossAfter, OnEvent: onEvent,
		PStart: p, PEnd: p + 2, Instr: nEvents * 3, Mem: nEvents,
		L1Hits: nEvents * 2, L1Misses: nEvents,
	})
	ft.AppendCrossing(trace.Crossing{
		Kind: trace.CrossExhaust, AfterEvents: nEvents, PStart: p + 3, PEnd: p + 3,
	})
	// MarkComplete before any replay: the recorder has no live stream, so
	// an extension attempt would be a harness bug, not a decoder one.
	ft.MarkComplete()
	if mutXor&0xff != 0 {
		if buf, _, _ := ft.Snapshot(); len(buf) > 0 {
			buf[mutPos%uint64(len(buf))] ^= byte(mutXor)
		}
	}
	return &Tape{frontEnd: FrontEndKey(cfg), rec: &recorder{cfg: cfg, tr: ft}, chunk: tapeChunkMin}
}

// fuzzGridCells returns fresh policy constructors for the fuzz grid's
// three cells (policies are stateful, so every replay needs its own).
func fuzzGridCells(cfg Config) []func() cache.Policy {
	return []func() cache.Policy{
		func() cache.Policy { return policy.NewLRU() },
		func() cache.Policy { return policy.NewDRRIP(uint64(cfg.Cores)) },
		func() cache.Policy { return policy.NewUCP(cfg.Cores, cfg.LLC.Ways) },
	}
}

// replayOnce replays tape under a fresh policy and enforces the error
// contract: a failed replay returns nil results.
func replayOnce(t *testing.T, cfg Config, newPol func() cache.Policy, tape *Tape) ([]CoreResult, error) {
	res, err := NewReplaySystem(cfg, newPol(), []*Tape{tape}).Run()
	if err != nil && res != nil {
		t.Errorf("failed replay returned non-nil results: %+v", res)
	}
	return res, err
}

// sameOutcome fails unless two replays of one tape agree in outcome and
// in content: every failure mode is a property of the tape.
func sameOutcome(t *testing.T, cell int, res [2][]CoreResult, errs [2]error) {
	t.Helper()
	if (errs[0] == nil) != (errs[1] == nil) {
		t.Fatalf("cell %d: replays disagree: err %v, then %v", cell, errs[0], errs[1])
	}
	if !reflect.DeepEqual(res[0], res[1]) {
		t.Fatalf("cell %d: replays diverge\nfirst:  %+v\nsecond: %+v", cell, res[0], res[1])
	}
}

func FuzzMultiReplayGrid(f *testing.F) {
	f.Add(uint64(64), uint64(1), uint64(64), false, uint64(0), uint64(0))      // valid, record at end
	f.Add(uint64(64), uint64(2), uint64(64), true, uint64(0), uint64(0))       // valid, on-event record
	f.Add(uint64(16), uint64(3), uint64(7), false, uint64(0), uint64(0))       // record mid-tape
	f.Add(uint64(0), uint64(4), uint64(0), true, uint64(0), uint64(0))         // stray on-event crossing
	f.Add(uint64(32), uint64(5), uint64(40), false, uint64(0), uint64(0))      // crossing past the tape
	f.Add(uint64(64), uint64(6), uint64(64), false, uint64(10), uint64(128))   // continuation-bit flip
	f.Add(uint64(64), uint64(7), uint64(64), false, uint64(900), uint64(0xff)) // flip near the tail

	f.Fuzz(func(t *testing.T, nEvents, seed, crossAfter uint64, onEvent bool, mutPos, mutXor uint64) {
		nEvents %= 2048
		if crossAfter > nEvents+8 {
			crossAfter %= nEvents + 8 // keep some runs valid, some past the end
		}
		cfg := fuzzConfig()
		tape := buildFuzzTape(cfg, nEvents, seed, crossAfter, onEvent, mutPos, mutXor)
		for ci, newPol := range fuzzGridCells(cfg) {
			var res [2][]CoreResult
			var errs [2]error
			for i := range res {
				res[i], errs[i] = replayOnce(t, cfg, newPol, tape)
			}
			sameOutcome(t, ci, res, errs)
		}
	})
}

// FuzzMultiReplayGridParallel replays the grid's cells on their own
// goroutines over one shared tape, as concurrent scheduler jobs do, and
// checks each cell against a sequential replay of the same bytes. The
// fuzz tapes have no decoded mirror, so every concurrent cell streams
// the shared packed buffer through its own cursor.
func FuzzMultiReplayGridParallel(f *testing.F) {
	f.Add(uint64(64), uint64(1), uint64(64), false, uint64(0), uint64(0))
	f.Add(uint64(16), uint64(3), uint64(7), false, uint64(0), uint64(0))
	f.Add(uint64(0), uint64(4), uint64(0), true, uint64(0), uint64(0))
	f.Add(uint64(32), uint64(5), uint64(40), false, uint64(0), uint64(0))
	f.Add(uint64(64), uint64(6), uint64(64), false, uint64(10), uint64(128))
	f.Add(uint64(64), uint64(7), uint64(64), false, uint64(900), uint64(0xff))

	f.Fuzz(func(t *testing.T, nEvents, seed, crossAfter uint64, onEvent bool, mutPos, mutXor uint64) {
		nEvents %= 2048
		if crossAfter > nEvents+8 {
			crossAfter %= nEvents + 8
		}
		cfg := fuzzConfig()
		tape := buildFuzzTape(cfg, nEvents, seed, crossAfter, onEvent, mutPos, mutXor)
		cells := fuzzGridCells(cfg)
		parRes := make([][]CoreResult, len(cells))
		parErrs := make([]error, len(cells))
		var wg sync.WaitGroup
		for ci, newPol := range cells {
			wg.Add(1)
			go func() {
				defer wg.Done()
				parRes[ci], parErrs[ci] = replayOnce(t, cfg, newPol, tape)
			}()
		}
		wg.Wait()
		for ci, newPol := range cells {
			seqRes, seqErr := replayOnce(t, cfg, newPol, tape)
			sameOutcome(t, ci, [2][]CoreResult{parRes[ci], seqRes}, [2]error{parErrs[ci], seqErr})
		}
	})
}
