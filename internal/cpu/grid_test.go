package cpu_test

// Grid-differential suite: a policy grid replays one tape set under
// every policy, one single-policy ReplaySystem per cell, with the cells
// run in order or on worker goroutines the way the experiment scheduler
// runs its cell jobs. Every cell must be byte-identical to a standalone
// replay over freshly recorded tapes and to the direct simulation — for
// every policy the service can build, across the machine shapes of the
// single-policy suite — no matter how many cells run at once, in which
// order, next to which siblings, or which cell recorded the tapes. The
// TestMultiReplay* names come from the one-pass grid engine these tests
// first covered; per-cell replay is what the grid runs now.

import (
	"reflect"
	"sync"
	"testing"

	"nucache/internal/cpu"
	"nucache/internal/sim"
	"nucache/internal/trace"
	"nucache/internal/workload"
)

// gridCells replays every named policy as its own cell over the shared
// tapes, on up to workers goroutines (workers <= 1 runs the cells in
// order on the caller), and returns each cell's results, system and
// error. A failed cell has nil results.
func gridCells(cfg cpu.Config, names []string, tapes []*cpu.Tape, workers int) ([][]cpu.CoreResult, []*cpu.ReplaySystem, []error) {
	res := make([][]cpu.CoreResult, len(names))
	systems := make([]*cpu.ReplaySystem, len(names))
	errs := make([]error, len(names))
	run := func(i int) {
		pol, err := sim.BuildPolicy(names[i], cfg.Cores, cfg.LLC.Ways, 0)
		if err != nil {
			errs[i] = err
			return
		}
		systems[i] = cpu.NewReplaySystem(cfg, pol, tapes)
		res[i], errs[i] = systems[i].Run()
	}
	if workers <= 1 {
		for i := range names {
			run(i)
		}
		return res, systems, errs
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				run(i)
			}
		}()
	}
	for i := range names {
		next <- i
	}
	close(next)
	wg.Wait()
	return res, systems, errs
}

// runGrid is gridCells for grids that must succeed.
func runGrid(t *testing.T, tc replayCase, names []string, tapes []*cpu.Tape, workers int) ([][]cpu.CoreResult, []*cpu.ReplaySystem) {
	t.Helper()
	res, systems, errs := gridCells(tc.cfg, names, tapes, workers)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("cell %s: %v", names[i], err)
		}
	}
	return res, systems
}

// compareCell asserts a grid cell is bit-identical to a reference
// machine over the same streams (a standalone ReplaySystem or a direct
// System): per-core results, full LLC statistics, prefetch and
// writeback counters, and DRAM state.
func compareCell(t *testing.T, cell *cpu.ReplaySystem, cellRes []cpu.CoreResult,
	refRes []cpu.CoreResult, ref cpu.Machine, refWB uint64, wbComparable bool) {
	t.Helper()
	if !reflect.DeepEqual(refRes, cellRes) {
		t.Errorf("cell core results diverge\nref:  %+v\ncell: %+v", refRes, cellRes)
	}
	if !reflect.DeepEqual(ref.LLC().Stats, cell.LLC().Stats) {
		t.Errorf("cell LLC stats diverge\nref:  %+v\ncell: %+v", ref.LLC().Stats, cell.LLC().Stats)
	}
	if ref.Prefetches() != cell.Prefetches() {
		t.Errorf("cell prefetches diverge: ref %d, cell %d", ref.Prefetches(), cell.Prefetches())
	}
	if wbComparable && refWB != cell.Writebacks {
		t.Errorf("cell writebacks diverge: ref %d, cell %d", refWB, cell.Writebacks)
	}
	rd, cd := ref.DRAM(), cell.DRAM()
	if (rd == nil) != (cd == nil) {
		t.Fatalf("cell DRAM presence diverges")
	}
	if rd != nil && (rd.Accesses != cd.Accesses || rd.RowHits != cd.RowHits) {
		t.Errorf("cell DRAM diverges: ref %d/%d, cell %d/%d",
			rd.Accesses, rd.RowHits, cd.Accesses, cd.RowHits)
	}
}

// compareWithSingleAndDirect checks one grid cell against a standalone
// replay over freshly recorded tapes and against the direct simulation.
func compareWithSingleAndDirect(t *testing.T, tc replayCase, polName string, cell *cpu.ReplaySystem, cellRes []cpu.CoreResult) {
	t.Helper()
	sRes, s := runReplay(t, tc, polName, makeTapes(tc))
	compareCell(t, cell, cellRes, sRes, s, s.Writebacks, true)
	dRes, d := runDirect(t, tc, polName)
	// System.Writebacks counts L1-to-L2 drains too when a private L2
	// exists (see compareRuns).
	compareCell(t, cell, cellRes, dRes, d, d.Writebacks, tc.cfg.L2.SizeBytes == 0)
}

// TestMultiReplayMatchesSingleAndDirect is the grid guarantee: every
// policy cell of a full-lineup grid, on every machine shape, is
// byte-identical both to a standalone replay of freshly recorded tapes
// and to the direct simulation. The grid's cells share one tape set, so
// every cell after the first replays tapes its siblings already walked.
func TestMultiReplayMatchesSingleAndDirect(t *testing.T) {
	for _, tc := range replayCases() {
		t.Run(tc.name, func(t *testing.T) {
			names := sim.Policies()
			res, cells := runGrid(t, tc, names, makeTapes(tc), 1)
			for ci, polName := range names {
				t.Run(polName, func(t *testing.T) {
					compareWithSingleAndDirect(t, tc, polName, cells[ci], res[ci])
				})
			}
		})
	}
}

// TestMultiReplayLaneArrangementInvariance is the property pin: a
// cell's results depend only on its own policy — not on cell order, not
// on which other cells share the tapes, not on duplicate siblings, and
// not on which cell recorded the tapes (the full, reversed and duplicate
// grids each start from a fresh recording, so their first cell records).
func TestMultiReplayLaneArrangementInvariance(t *testing.T) {
	tc := replayCases()[7] // L2+warmup+prefetch+dram: the richest shape
	names := sim.Policies()

	tapes := makeTapes(tc)
	full, _ := runGrid(t, tc, names, tapes, 1)
	want := map[string][]cpu.CoreResult{}
	for i, n := range names {
		want[n] = full[i]
	}

	// Reversed cell order.
	rev := make([]string, len(names))
	for i, n := range names {
		rev[len(names)-1-i] = n
	}
	revRes, _ := runGrid(t, tc, rev, makeTapes(tc), 1)
	for i, n := range rev {
		if !reflect.DeepEqual(want[n], revRes[i]) {
			t.Errorf("%s diverges when cells are reversed", n)
		}
	}

	// Every proper subset of adjacent cells, including singletons, over
	// the full grid's tapes.
	for lo := 0; lo < len(names); lo++ {
		for hi := lo + 1; hi <= len(names); hi++ {
			if lo == 0 && hi == len(names) {
				continue
			}
			sub := names[lo:hi]
			subRes, _ := runGrid(t, tc, sub, tapes, 1)
			for i, n := range sub {
				if !reflect.DeepEqual(want[n], subRes[i]) {
					t.Errorf("%s diverges in subset %v", n, sub)
				}
			}
		}
	}

	// Duplicate cells of one policy must be identical to each other and
	// to the full-grid cell (no cross-cell state leaks through a tape).
	dup := []string{names[0], names[1], names[0]}
	dupRes, _ := runGrid(t, tc, dup, makeTapes(tc), 1)
	if !reflect.DeepEqual(dupRes[0], dupRes[2]) {
		t.Errorf("duplicate %s cells diverge from each other", names[0])
	}
	if !reflect.DeepEqual(want[names[0]], dupRes[0]) {
		t.Errorf("duplicate %s cell diverges from full grid", names[0])
	}
}

// TestMultiReplayParallelMatchesSerialAndSingle extends the grid
// guarantee to concurrent cells: a grid whose cells run on three worker
// goroutines over a fresh tape set — so cells extend the tapes while
// their siblings replay them — is, on every machine shape, byte-
// identical to the in-order grid, to a standalone replay and to the
// direct simulation.
func TestMultiReplayParallelMatchesSerialAndSingle(t *testing.T) {
	for _, tc := range replayCases() {
		t.Run(tc.name, func(t *testing.T) {
			names := sim.Policies()
			serial, _ := runGrid(t, tc, names, makeTapes(tc), 1)
			par, cells := runGrid(t, tc, names, makeTapes(tc), 3)
			for ci, polName := range names {
				t.Run(polName, func(t *testing.T) {
					if !reflect.DeepEqual(serial[ci], par[ci]) {
						t.Errorf("concurrent cell diverges from in-order grid\nserial: %+v\npar:    %+v",
							serial[ci], par[ci])
					}
					compareWithSingleAndDirect(t, tc, polName, cells[ci], par[ci])
				})
			}
		})
	}
}

// TestMultiReplayParallelStreamingWindow forces the decode budget to
// run out mid-tape (as in TestReplayDecodeBudgetStreaming), so every
// cell stream-decodes the tail of the shared packed tapes through its
// own cursor while its siblings do the same. Byte-identity against the
// in-order grid and the direct simulation pins the streaming path under
// concurrency.
func TestMultiReplayParallelStreamingWindow(t *testing.T) {
	old := cpu.SetTapeBudget(cpu.TapeBytes()/2 + 600<<10)
	defer cpu.SetTapeBudget(old)

	tc := replayCase{
		name:    "decode-budget",
		cfg:     smallConfig(2),
		streams: benchStreams("mcf-like", "milc-like"),
	}
	tc.cfg.InstrBudget = 120_000

	names := sim.Policies()
	tapes := makeTapes(tc)
	serial, _ := runGrid(t, tc, names, tapes, 1)
	par, cells := runGrid(t, tc, names, tapes, len(names))
	for ci, polName := range names {
		if !reflect.DeepEqual(serial[ci], par[ci]) {
			t.Errorf("%s: concurrent streaming cell diverges from in-order grid", polName)
		}
	}
	dRes, d := runDirect(t, tc, names[0])
	compareCell(t, cells[0], par[0], dRes, d, d.Writebacks, true)
}

// TestMultiReplayParallelWorkerCounts: zero, one, two, one per cell and
// more workers than cells all produce identical grids. Each grid starts
// from a fresh recording, so the tapes are extended by whichever cells
// get there first.
func TestMultiReplayParallelWorkerCounts(t *testing.T) {
	tc := replayCases()[7] // L2+warmup+prefetch+dram: the richest shape
	names := sim.Policies()
	want, _ := runGrid(t, tc, names, makeTapes(tc), 1)
	for _, workers := range []int{0, 1, 2, len(names), 4 * len(names)} {
		got, _ := runGrid(t, tc, names, makeTapes(tc), workers)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("results diverge with %d workers", workers)
		}
	}
}

// TestMultiReplayParallelNilResultsOnError pins the error contract for
// concurrent cells: every cell over a budget-starved tape fails with nil
// results, never partial ones.
func TestMultiReplayParallelNilResultsOnError(t *testing.T) {
	old := cpu.SetTapeBudget(0) // recording dies immediately
	defer cpu.SetTapeBudget(old)
	cfg := smallConfig(1)
	names := []string{"LRU", "NUcache", "UCP"}
	tape := cpu.NewTape(cfg, workload.MustByName("art-like").Stream(1))
	res, _, errs := gridCells(cfg, names, []*cpu.Tape{tape}, len(names))
	for i, n := range names {
		if errs[i] == nil {
			t.Errorf("%s: concurrent cell over a budget-starved tape should fail", n)
		}
		if res[i] != nil {
			t.Errorf("%s: failed cell returned non-nil results: %+v", n, res[i])
		}
	}
}

// TestMultiReplayUntaggableStream mirrors the single-policy fallback
// test for a whole grid: a stream outside the core-tagging range fails
// every cell with an error, never a panic or partial results.
func TestMultiReplayUntaggableStream(t *testing.T) {
	cfg := smallConfig(1)
	bad := trace.NewSliceStream([]trace.Access{
		{Addr: 1 << 45, PC: 0x400000, Kind: trace.Load},
	})
	names := []string{"LRU", "NUcache", "UCP"}
	res, _, errs := gridCells(cfg, names, []*cpu.Tape{cpu.NewTape(cfg, bad)}, 1)
	for i, n := range names {
		if errs[i] == nil {
			t.Errorf("%s: untaggable stream must fail the cell", n)
		}
		if res[i] != nil {
			t.Errorf("%s: failed cell returned non-nil results: %+v", n, res[i])
		}
	}
}
