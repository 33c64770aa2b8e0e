package experiments

import (
	"path/filepath"
	"testing"

	"nucache/internal/sim"
)

// TestResumedCellsDecodeOnceAndStayReadOnly: a journaled sweep resumed
// from its journal decodes each journaled cell exactly once (the
// journal seeds the grid cache with bytes), serves repeats from the
// kept values, and leaves every kept value equal to its bytes — so no
// grid or advisor consumer writes into a cached cell.
func TestResumedCellsDecodeOnceAndStayReadOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	// A seed no other test uses, so every cell is computed (and
	// journaled) by this run rather than hit in the shared grid cache.
	o := Options{Budget: 60_000, Seed: 7177, MixLimit: 1, Parallel: 2}
	run := func() string {
		return DeliWaysSweep(o).Table().String() + ProfileAdvisorSweep(o).Table().String()
	}

	jnl, _, err := OpenSweepJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	o.Journal = jnl
	want := run()
	jnl.Close()

	jnl, seeded, err := OpenSweepJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	o.Journal = jnl
	if seeded == 0 {
		t.Fatal("journal resumed no cells")
	}
	before := sim.CacheDecodes.Value()
	for i := 0; i < 2; i++ {
		if got := run(); got != want {
			t.Fatalf("resumed sweep differs:\n%s\nwant:\n%s", got, want)
		}
	}
	if decodes := sim.CacheDecodes.Value() - before; decodes != int64(seeded) {
		t.Fatalf("two resumed passes over %d journaled cells decoded %d times, want %d", seeded, decodes, seeded)
	}
	if jnl.Records() != seeded {
		t.Fatalf("resumed sweep journaled %d new cells", jnl.Records()-seeded)
	}
	if err := gridCache.CheckDecoded(); err != nil {
		t.Fatal(err)
	}
}
