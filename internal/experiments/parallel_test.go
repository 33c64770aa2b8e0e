package experiments

import (
	"reflect"
	"runtime"
	"testing"

	"nucache/internal/sim"
)

// TestGridMatchesSequential is the grid's one oracle: every cell the
// scheduler-backed grid computes (per-cell record/replay over shared
// tapes) must equal, value for value, a sequential direct simulation of
// that cell — at one worker and at four — and therefore give
// byte-identical tables. Distinct budgets keep each worker count out of
// the other's (and other tests') cache entries.
func TestGridMatchesSequential(t *testing.T) {
	specs := StandardPolicies()
	for _, tc := range []struct {
		parallel int
		budget   uint64
	}{{1, 170_000}, {4, 171_000}} {
		o := Options{Budget: tc.budget, Seed: 1, MixLimit: 2, Parallel: tc.parallel}.withDefaults()
		direct := o
		direct.DisableReplay = true
		mixes := o.mixes(2)
		replayed := sim.TracesReplayed.Value()
		grid := o.mixMetricsGrid(mixes, specs)
		if sim.TracesReplayed.Value() == replayed {
			t.Fatalf("parallel=%d: grid never took the replay path", tc.parallel)
		}
		for i, m := range mixes {
			for j, s := range specs {
				if want := direct.mixMetrics(m, s); !reflect.DeepEqual(grid[i][j], want) {
					t.Fatalf("parallel=%d: %s under %s: grid %+v != direct %+v",
						tc.parallel, m.Name, s.Name, grid[i][j], want)
				}
			}
		}
	}
}

// gridCheck runs o's 2-core policy grid and requires every cell to equal a
// sequential mixMetrics call under the same options. It returns how far
// the replay and fallback counters moved during the grid itself.
func gridCheck(t *testing.T, o Options) (cells int, replayed, fallbacks int64) {
	t.Helper()
	specs := StandardPolicies()
	mixes := o.mixes(2)
	replayed0, fallbacks0 := sim.TracesReplayed.Value(), sim.TraceFallbacks.Value()
	grid := o.mixMetricsGrid(mixes, specs)
	replayed = sim.TracesReplayed.Value() - replayed0
	fallbacks = sim.TraceFallbacks.Value() - fallbacks0
	for i, m := range mixes {
		for j, s := range specs {
			if want := o.mixMetrics(m, s); !reflect.DeepEqual(grid[i][j], want) {
				t.Fatalf("%s under %s (parallel=%d, noreplay=%v): grid %+v != sequential %+v",
					m.Name, s.Name, o.Parallel, o.DisableReplay, grid[i][j], want)
			}
		}
	}
	return len(mixes) * len(specs), replayed, fallbacks
}

// TestMultiReplayEngagementAndEscapeHatch pins the grid's replay wiring
// at the experiments layer: by default every computed cell is served by
// the record/replay path (one TracesReplayed tick each, no fallbacks),
// DisableReplay keeps the grid off it entirely, and both modes reproduce
// sequential mixMetrics values. Distinct budgets keep the two grids out
// of each other's cache entries.
func TestMultiReplayEngagementAndEscapeHatch(t *testing.T) {
	on := Options{Budget: 155_000, Seed: 1, MixLimit: 2, Parallel: 2}.withDefaults()
	cells, replayed, fallbacks := gridCheck(t, on)
	if replayed < int64(cells) || fallbacks != 0 {
		t.Fatalf("default grid: %d of %d cells replayed, %d fallbacks", replayed, cells, fallbacks)
	}

	off := Options{Budget: 165_000, Seed: 1, MixLimit: 2, Parallel: 2, DisableReplay: true}.withDefaults()
	if _, replayed, fallbacks := gridCheck(t, off); replayed != 0 || fallbacks != 0 {
		t.Fatalf("DisableReplay grid touched the replay path: %d replays, %d fallbacks", replayed, fallbacks)
	}
}

// TestMultiReplayParallelLanesEngagementAndEscapeHatch pins concurrent
// cells on cold tapes: with one mix, eight scheduler workers and
// GOMAXPROCS headroom, all of a row's policy cells start together on
// tapes nobody has recorded yet (a seed no other test uses). Every cell
// must still be served by replay without a fallback, and the grid must
// match sequential mixMetrics values — as must the one-worker grid,
// the serial escape hatch.
func TestMultiReplayParallelLanesEngagementAndEscapeHatch(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, o := range []Options{
		{Budget: 157_000, Seed: 23, MixLimit: 1, Parallel: 8},
		{Budget: 167_000, Seed: 23, MixLimit: 1, Parallel: 1},
	} {
		cells, replayed, fallbacks := gridCheck(t, o.withDefaults())
		if replayed < int64(cells) || fallbacks != 0 {
			t.Fatalf("parallel=%d: %d of %d cells replayed, %d fallbacks",
				o.Parallel, replayed, cells, fallbacks)
		}
	}
}

// TestMulticoreTableParallelInvariance renders the 2-core mix table at
// different worker counts and requires identical bytes.
func TestMulticoreTableParallelInvariance(t *testing.T) {
	seq := Options{Budget: 160_000, Seed: 1, MixLimit: 2, Parallel: 1}
	par := Options{Budget: 160_000, Seed: 1, MixLimit: 2, Parallel: 8}
	a := MulticoreComparison(2, seq).Table().String()
	b := MulticoreComparison(2, par).Table().String()
	if a != b {
		t.Fatalf("tables diverge between worker counts:\n--- sequential\n%s\n--- parallel\n%s", a, b)
	}
}

// TestSweepUsesSharedBaseline checks that two sweeps at one configuration
// agree on their baseline-relative scale (the LRU row is cached and
// shared), and that cache reuse does not change results.
func TestSweepUsesSharedBaseline(t *testing.T) {
	o := Options{Budget: 140_000, Seed: 1, MixLimit: 1, Parallel: 2}
	first := DeliWaysSweep(o)
	again := DeliWaysSweep(o)
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("repeated sweep differs: %+v vs %+v", first, again)
	}
}
