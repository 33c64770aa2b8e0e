package main

import (
	"embed"
	"fmt"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"nucache/internal/workload"
)

// grid4 is a cold `nucache-bench -exp E7` process: the ten standard
// 4-core mixes under the five-policy lineup, GOMAXPROCS left at nproc.
// The policy-grid path does almost all of its work, and it carries the
// paper's 4-core headline.
const (
	grid4Budget = 250_000
	// grid4Seeds is how many simulator seeds have stored E7 references
	// (refs/e7-seed<k>.txt, k = 1..grid4Seeds); the workload seed picks one.
	grid4Seeds = 4
)

// sweep1 is a cold serial journaled `nucache-sweep -sweep all` over a
// truncated 4-core mix list, then -resume over the complete journal. It
// bypasses grid parallelism, hits the result cache with the shared LRU
// baseline, runs the E21 profile sweep (mrc), and fsyncs one journal
// record per cell.
const (
	sweepBudget = 250_000
	sweepMixes  = 2
)

// grid4's quick class is a cold E7 over the first quickMixes mixes at
// quickBudget with simulator seed 1: the same grid path (tape record,
// multi-policy walk, lanes, scheduler) on a grid small enough to time
// many times. sweep1's set-up is a cold nucache-sweep of every sweep over
// one mix at setupSweepBudget: start-up and each sweep's scaffolding, with
// almost nothing simulated. sweep1's quick class is -resume over a
// complete journal.
const (
	quickMixes       = 2
	quickBudget      = 40_000
	setupSweepBudget = 1_000

	grid4SetupPerBatch = 20
	grid4QuickPerBatch = 12
	sweepSetupPerBatch = 20
	sweepQuickPerBatch = 75
)

// cliBatch is what a CLI workload times after each heavy run: setup cold
// set-up samples (setup_s) and quick samples of its quick class
// (quick_p50_ms). Spread over the run, they see the host conditions the
// heavy runs see.
type cliBatch struct {
	setup, quick     int
	setupOp, quickOp func() time.Duration
}

// after appends one batch of set-up samples (s) and quick samples (ms).
func (b cliBatch) after(short bool, setup, quick *[]float64) {
	for i := 0; i < pick(short, b.setup, 3); i++ {
		*setup = append(*setup, b.setupOp().Seconds())
	}
	for i := 0; i < pick(short, b.quick, 3); i++ {
		*quick = append(*quick, float64(b.quickOp())/float64(time.Millisecond))
	}
}

//go:embed refs
var embeddedRefs embed.FS

// refs holds the stored reference outputs (a variable so the self-test
// can substitute a perturbed copy).
var refs fs.FS = embeddedRefs

func grid4SimSeed(seed uint64) uint64 { return 1 + seed%grid4Seeds }

func grid4Input(seed uint64) layerInput {
	mixes := workload.MixesFor(4)
	return layerInput{mix: mixes[seed%uint64(len(mixes))].Name, budget: grid4Budget, seed: grid4SimSeed(seed)}
}

func sweepSimSeed(seed uint64) uint64 { return 1 + seed%1_000_000 }

func sweep1Input(seed uint64) layerInput {
	return layerInput{mix: workload.MixesFor(4)[seed%sweepMixes].Name, budget: sweepBudget, seed: sweepSimSeed(seed)}
}

func readRef(name string) string {
	data, err := fs.ReadFile(refs, "refs/"+name)
	if err != nil {
		return ""
	}
	return string(data)
}

func pick[T any](short bool, long, brief T) T {
	if short {
		return brief
	}
	return long
}

// cliMetrics assembles the end-to-end metrics of a CLI workload.
func cliMetrics(setup []float64, walls []time.Duration, quick []float64, rss []float64) map[string]metric {
	return map[string]metric{
		"setup_s":      {median(setup), "s"},
		"wall_s":       {median(seconds(walls)), "s"},
		"quick_p50_ms": {quantile(quick, 0.5), "ms"},
		"peak_rss_mb":  {median(rss), "MB"},
	}
}

// refOp returns an operation that runs a CLI cold and checks its tables
// against the stored reference ref.
func (r *run) refOp(ref, bin string, args ...string) func() time.Duration {
	want := readRef(ref)
	return func() time.Duration {
		c := r.exec(bin, args...)
		r.check(c.err == nil && tables(c.stdout) == want, "%s %s differs from refs/%s (%v)", bin, strings.Join(args, " "), ref, c.err)
		return c.wall
	}
}

func measureGrid4(r *run, short bool) (map[string]metric, float64) {
	simSeed := grid4SimSeed(r.seed)
	ref := readRef(fmt.Sprintf("e7-seed%d.txt", simSeed))
	if ref == "" || readRef("e7-quick.txt") == "" || readRef("e4.txt") == "" {
		r.fail(fmt.Errorf("missing stored reference for E7 seed %d, the quick E7 or E4", simSeed))
		return nil, 0
	}
	// Set-up is a cold `nucache-bench -exp E4`: process start, package
	// init and configuration render; it simulates nothing.
	batch := cliBatch{
		setup:   grid4SetupPerBatch,
		quick:   grid4QuickPerBatch,
		setupOp: r.refOp("e4.txt", "nucache-bench", "-exp", "E4"),
		quickOp: r.refOp("e7-quick.txt", "nucache-bench", "-exp", "E7", "-mixlimit", strconv.Itoa(quickMixes),
			"-budget", strconv.Itoa(quickBudget)),
	}

	var walls []time.Duration
	var setup, quick, rss, busy []float64
	var gain string
	r.repeat(pick(short, 3, 1), short, func() time.Duration {
		start := time.Now()
		end := r.tr.begin("proc.nucache-bench-E7")
		c := r.exec("nucache-bench", "-exp", "E7", "-budget", strconv.Itoa(grid4Budget),
			"-seed", strconv.FormatUint(simSeed, 10))
		end()
		out := tables(c.stdout)
		r.check(c.err == nil && out == ref, "E7 seed %d differs from the stored reference (%v)", simSeed, c.err)
		walls = append(walls, c.wall)
		rss = append(rss, c.rssMB)
		busy = append(busy, c.cpu.Seconds()/c.wall.Seconds())
		gain = geomeanColumn(out, 2)
		batch.after(short, &setup, &quick)
		return time.Since(start)
	})

	r.report("E7 (%d mixes x 5 policies, budget %d, seed %d): cold runs %.3f s, cores busy %.2f",
		len(workload.MixesFor(4)), grid4Budget, simSeed, seconds(walls), median(busy))
	r.report("nucache_ws_gain_pct = %s (simulated; E7 geomean NUcache over LRU; paper +30%%; model unvalidated, no error figure)", gain)
	q := tailQuantile(len(quick))
	r.report("quick class = cold E7 -mixlimit %d -budget %d: p50 %.3f ms, p%g %.3f ms (n=%d); setup = cold -exp E4 (n=%d)",
		quickMixes, quickBudget, quantile(quick, 0.5), q*100, quantile(quick, q), len(quick), len(setup))
	return cliMetrics(setup, walls, quick, rss), median(busy)
}

// geomeanColumn returns column col of a table's geomean row.
func geomeanColumn(table string, col int) string {
	for _, line := range strings.Split(table, "\n") {
		if f := strings.Fields(line); len(f) > col && f[0] == "geomean" {
			return f[col]
		}
	}
	return "?"
}

func measureSweep1(r *run, short bool) (map[string]metric, float64) {
	if readRef("sweep-setup.txt") == "" {
		r.fail(fmt.Errorf("missing stored reference for the set-up sweep"))
		return nil, 0
	}
	args := []string{"-sweep", "all", "-parallel", "1", "-mixlimit", strconv.Itoa(sweepMixes),
		"-budget", strconv.Itoa(sweepBudget), "-seed", strconv.FormatUint(sweepSimSeed(r.seed), 10)}

	var walls []time.Duration
	var setup, quick, rss, busy []float64
	var full, jpath string
	batch := cliBatch{
		setup: sweepSetupPerBatch,
		quick: sweepQuickPerBatch,
		setupOp: r.refOp("sweep-setup.txt", "nucache-sweep", "-sweep", "all", "-parallel", "1", "-mixlimit", "1",
			"-budget", strconv.Itoa(setupSweepBudget)),
		// Each resume reads the latest full run's complete journal and
		// must print the first full run's tables.
		quickOp: func() time.Duration {
			end := r.tr.begin("proc.nucache-sweep-resume")
			c := r.exec("nucache-sweep", append(args, "-journal", jpath, "-resume")...)
			end()
			r.check(c.err == nil && tables(c.stdout) == full, "resume differs from the full run (%v)", c.err)
			return c.wall
		},
	}
	r.repeat(pick(short, 3, 1), short, func() time.Duration {
		start := time.Now()
		i := len(walls)
		jpath = filepath.Join(r.tmp, fmt.Sprintf("sweep-%d.journal", i))
		end := r.tr.begin("proc.nucache-sweep-full")
		c := r.exec("nucache-sweep", append(args, "-journal", jpath)...)
		end()
		out := tables(c.stdout)
		if i == 0 {
			full = out
		}
		r.check(c.err == nil && out == full && strings.Contains(out, "E21"),
			"journaled sweep run %d differs from run 0 (%v)", i, c.err)
		walls = append(walls, c.wall)
		rss = append(rss, c.rssMB)
		busy = append(busy, c.cpu.Seconds()/c.wall.Seconds())
		batch.after(short, &setup, &quick)
		return time.Since(start)
	})
	r.report("journaled sweep (mixlimit %d, budget %d): cold runs %.3f s, cores busy %.2f",
		sweepMixes, sweepBudget, seconds(walls), median(busy))
	q := tailQuantile(len(quick))
	r.report("quick class = resume over the complete journal: p50 %.3f ms, p%g %.3f ms (n=%d); setup = cold sweep -mixlimit 1 -budget %d (n=%d)",
		quantile(quick, 0.5), q*100, quantile(quick, q), len(quick), setupSweepBudget, len(setup))
	return cliMetrics(setup, walls, quick, rss), median(busy)
}
