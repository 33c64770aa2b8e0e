// Package experiments contains one runner per table/figure of the NUcache
// evaluation (the experiment index lives in DESIGN.md; measured-vs-paper
// results in EXPERIMENTS.md). Each runner builds the machine, drives the
// workloads, and renders a text table shaped like the paper's artifact.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"slices"
	"strings"
	"sync"
	"time"

	"nucache/internal/cache"
	"nucache/internal/core"
	"nucache/internal/cpu"
	"nucache/internal/fabric"
	"nucache/internal/journal"
	"nucache/internal/memory"
	"nucache/internal/metrics"
	"nucache/internal/policy"
	"nucache/internal/sim"
	"nucache/internal/workload"
)

// Options are the global run parameters shared by all experiments.
type Options struct {
	// Budget is the per-core instruction budget (0 = 5M).
	Budget uint64
	// Seed drives all workload generators (0 = 1).
	Seed uint64
	// MixLimit truncates the standard mix lists (0 = all); tests use it.
	MixLimit int
	// BenchLimit truncates the benchmark list (0 = all); tests use it.
	BenchLimit int
	// Only restricts benchmark-driven experiments to one benchmark name
	// (empty = all).
	Only string
	// PrefetchDegree enables the next-line prefetcher on every core
	// (0 = off); used by the E17 prefetch-interaction study.
	PrefetchDegree int
	// UseDRAM switches the machine to the bank/row-buffer memory model
	// (used by the E18 memory-model study).
	UseDRAM bool
	// Parallel is the worker count for scheduler-backed experiments
	// (0 = runtime.NumCPU(), 1 = sequential). Mix tables are
	// embarrassingly parallel across (mix, policy) pairs; results are
	// byte-identical regardless of this setting because each pair is an
	// independent deterministic simulation collected in submission order.
	Parallel int
	// JobTimeout bounds each scheduler-backed (mix, policy) evaluation
	// (0 = no deadline). A pair exceeding it fails the grid with a
	// deadline error instead of hanging the whole experiment.
	JobTimeout time.Duration
	// DisableReplay forces direct simulation instead of the record/replay
	// fast path (results are bit-identical either way; the switch exists
	// for A/B debugging and the differential tests).
	DisableReplay bool
	// Ctx, when non-nil, cancels scheduler-backed grids early: queued
	// cells return the context error, in-flight cells run to completion
	// (and still checkpoint), and the grid reports nil instead of
	// panicking — commands then exit cleanly, leaving the journal
	// resumable. Nil means context.Background() (never canceled).
	Ctx context.Context
	// Journal, when non-nil, checkpoints every computed grid cell
	// (content-address key plus JSON metrics) as it completes, so a
	// crashed or interrupted sweep resumes via OpenSweepJournal without
	// recomputing finished cells. Appends are best-effort: a journal
	// write failure is logged and the sweep continues (the cell just
	// recomputes on resume).
	Journal *journal.Journal
	// Fabric, when non-nil, distributes grid cells to the coordinator's
	// remote worker pool: uncached wire-able cells are offered for
	// lease, each cell job consults the coordinator before computing
	// locally, and verified remote results are folded in through the
	// coordinator's OnResult hook (see NewSweepCoordinator). Nil — or a
	// pool with zero workers — leaves the sweep byte-identical to a
	// purely local run.
	Fabric *fabric.Coordinator
}

func (o Options) withDefaults() Options {
	if o.Budget == 0 {
		o.Budget = 5_000_000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o Options) mixes(cores int) []workload.Mix {
	ms := workload.MixesFor(cores)
	if o.MixLimit > 0 && len(ms) > o.MixLimit {
		ms = ms[:o.MixLimit]
	}
	return ms
}

func (o Options) benchmarks() []workload.Benchmark {
	if o.Only != "" {
		return []workload.Benchmark{workload.MustByName(o.Only)}
	}
	bs := workload.All()
	if o.BenchLimit > 0 && len(bs) > o.BenchLimit {
		bs = bs[:o.BenchLimit]
	}
	return bs
}

// PolicySpec names a shared-LLC policy and knows how to build a fresh
// instance for a machine.
type PolicySpec struct {
	// Name appears in result tables.
	Name string
	// New builds the policy for a machine with the given core count and
	// LLC associativity.
	New func(cores, ways int) cache.Policy
	// Wire, when non-nil, serializes the spec for remote execution
	// (see PolicyWire). Specs without a wire form — ad-hoc literals in
	// tests — are never offered to the fabric and always run locally.
	Wire func(cores, ways int) *PolicyWire
}

// Baseline is the baseline policy every comparison normalizes to.
func Baseline() PolicySpec {
	return PolicySpec{
		Name: "LRU",
		New:  func(int, int) cache.Policy { return policy.NewLRU() },
		Wire: func(int, int) *PolicyWire { return &PolicyWire{Kind: "lru"} },
	}
}

// NUcacheSpec is the paper's mechanism with default parameters.
func NUcacheSpec() PolicySpec {
	return PolicySpec{
		Name: "NUcache",
		New: func(_, ways int) cache.Policy {
			return core.MustNew(core.DefaultConfig(ways))
		},
		Wire: func(_, ways int) *PolicyWire {
			cfg := core.DefaultConfig(ways)
			return &PolicyWire{Kind: "nucache", NU: &cfg}
		},
	}
}

// NUcacheWith builds a spec from an explicit configuration (sweeps).
// The configuration resolves to a plain core.Config, so even sweeps
// built from closures serialize for remote execution.
func NUcacheWith(name string, cfg func(ways int) core.Config) PolicySpec {
	return PolicySpec{
		Name: name,
		New: func(_, ways int) cache.Policy {
			return core.MustNew(cfg(ways))
		},
		Wire: func(_, ways int) *PolicyWire {
			c := cfg(ways)
			return &PolicyWire{Kind: "nucache", NU: &c}
		},
	}
}

// Competitors returns the cache-partitioning policies the paper compares
// against: UCP, PIPP and TADIP.
func Competitors() []PolicySpec {
	wire := func(kind string) func(int, int) *PolicyWire {
		return func(int, int) *PolicyWire { return &PolicyWire{Kind: kind} }
	}
	return []PolicySpec{
		{Name: "UCP", New: func(cores, ways int) cache.Policy {
			return policy.NewUCP(cores, ways)
		}, Wire: wire("ucp")},
		{Name: "PIPP", New: func(cores, ways int) cache.Policy {
			return policy.NewPIPP(cores, ways, 12345)
		}, Wire: wire("pipp")},
		{Name: "TADIP", New: func(cores, _ int) cache.Policy {
			return policy.NewTADIP(cores, 12345)
		}, Wire: wire("tadip")},
	}
}

// StandardPolicies is baseline + NUcache + competitors, the lineup of the
// multicore comparison figures.
func StandardPolicies() []PolicySpec {
	return append([]PolicySpec{Baseline(), NUcacheSpec()}, Competitors()...)
}

// machine returns the simulated machine for a core count with the
// experiment budget applied.
func (o Options) machine(cores int) cpu.Config {
	cfg := cpu.DefaultConfig(cores)
	cfg.InstrBudget = o.Budget
	cfg.PrefetchDegree = o.PrefetchDegree
	if o.UseDRAM {
		d := memory.DefaultConfig()
		cfg.DRAM = &d
	}
	return cfg
}

// runMix simulates one mix under one policy and returns per-core
// results. It goes through sim.RunMachine, so the policy-independent
// front end is recorded once per (benchmark, seed, geometry) and
// replayed per policy — bit-identical to direct simulation — and
// retired-instruction accounting happens exactly once per computed run.
func (o Options) runMix(m workload.Mix, spec PolicySpec) []cpu.CoreResult {
	cfg := o.machine(m.Cores())
	res, _, _ := sim.RunMachine(cfg, func() cache.Policy {
		return spec.New(cfg.Cores, cfg.LLC.Ways)
	}, m, o.Seed, o.DisableReplay)
	return res
}

// runAlone simulates one benchmark alone on the same machine geometry
// (the denominator of weighted speedup). Results are memoized per
// (benchmark, LLC size, budget, seed). Entries carry a sync.Once so
// concurrent grid workers needing the same alone run compute it exactly
// once without holding the map lock across a simulation.
type aloneKey struct {
	bench    string
	llcSize  int
	budget   uint64
	seed     uint64
	prefetch int
	dram     bool
}

type aloneEntry struct {
	once sync.Once
	ipc  float64
}

var (
	aloneMu    sync.Mutex
	aloneCache = map[aloneKey]*aloneEntry{}
)

func (o Options) aloneIPC(bench string, cores int) float64 {
	cfg := o.machine(cores)
	cfg.Cores = 1
	key := aloneKey{
		bench: bench, llcSize: cfg.LLC.SizeBytes,
		budget: o.Budget, seed: o.Seed, prefetch: o.PrefetchDegree,
		dram: o.UseDRAM,
	}
	aloneMu.Lock()
	e, ok := aloneCache[key]
	if !ok {
		e = &aloneEntry{}
		aloneCache[key] = e
	}
	aloneMu.Unlock()
	e.once.Do(func() {
		// A single-member mix at position 0 derives the same stream seed
		// as the shared-mode run, so when some mix leads with this
		// benchmark the alone run replays the very tape that mix
		// recorded. OneShot: an alone run replays once, so recording a
		// fresh tape for it would cost more than simulating directly.
		alone := workload.Mix{Name: "alone/" + bench, Members: []string{bench}}
		res, _, _ := sim.RunMachineOneShot(cfg, func() cache.Policy {
			return policy.NewLRU()
		}, alone, o.Seed, o.DisableReplay)
		e.ipc = res[0].IPC()
	})
	return e.ipc
}

// MixMetrics summarizes one (mix, policy) run.
type MixMetrics struct {
	// IPC is the per-core shared-mode IPC.
	IPC []float64
	// WS is weighted speedup vs alone runs.
	WS float64
	// ANTT is average normalized turnaround time (lower is better).
	ANTT float64
	// HS is the harmonic mean of speedups.
	HS float64
	// Fairness is min/max speedup.
	Fairness float64
	// MPKI is the aggregate LLC misses per kilo-instruction.
	MPKI float64
}

func (o Options) mixMetrics(m workload.Mix, spec PolicySpec) MixMetrics {
	res := o.runMix(m, spec)
	shared := make([]float64, len(res))
	var misses, instr uint64
	for i, r := range res {
		shared[i] = r.IPC()
		misses += r.LLCMisses
		instr += r.Instructions
	}
	alone := make([]float64, len(res))
	for i, name := range m.Members {
		alone[i] = o.aloneIPC(name, m.Cores())
	}
	mm := MixMetrics{
		IPC:      shared,
		WS:       metrics.WeightedSpeedup(shared, alone),
		ANTT:     metrics.ANTT(shared, alone),
		HS:       metrics.HarmonicSpeedup(shared, alone),
		Fairness: metrics.Fairness(shared, alone),
	}
	if instr > 0 {
		mm.MPKI = 1000 * float64(misses) / float64(instr)
	}
	return mm
}

// gridCache memoizes MixMetrics across experiments in this process,
// keyed by everything that determines them. Repeated sweeps (every
// sensitivity study re-runs the LRU baseline on the same mixes) hit
// instead of re-simulating.
var gridCache = sim.NewCache(8192, "")

// mixKey is the content address of one (mix, policy) evaluation. Policy
// names are part of the address: every PolicySpec in this package encodes
// its distinguishing parameters in its name (e.g. "D=4", "epoch=50k"),
// which keeps closure-built specs hashable.
func (o Options) mixKey(m workload.Mix, spec PolicySpec) string {
	return strings.Join([]string{
		"mixmetrics/v1",
		"policy=" + spec.Name,
		"mix=" + m.Name,
		"members=" + strings.Join(m.Members, "+"),
		fmt.Sprintf("budget=%d", o.Budget),
		fmt.Sprintf("seed=%d", o.Seed),
		fmt.Sprintf("prefetch=%d", o.PrefetchDegree),
		fmt.Sprintf("dram=%v", o.UseDRAM),
	}, "|")
}

// cellRecord is one checkpoint journal entry. Completion records (Type
// empty) address a finished grid cell by content key and carry exactly
// the JSON the result cache stores — resume seeds the cache with Val
// verbatim, so a resumed sweep is byte-identical to an uninterrupted
// one. Worker annotates completions computed by a remote fabric worker
// (empty for local cells). Records with a non-empty Type are fabric
// events ("fabric.lease", "fabric.expire", ...): an audit trail of
// assignments that resume replays but does not act on — a lease held
// when the coordinator died proves nothing about the cell.
type cellRecord struct {
	Type   string          `json:"type,omitempty"`
	Key    string          `json:"key,omitempty"`
	Val    json.RawMessage `json:"val,omitempty"`
	Worker string          `json:"worker,omitempty"`
}

// journalValue checkpoints one computed cell of any JSON-serializable
// type (MixMetrics grids, advisor ProfileCells). Best effort: a journal
// failure costs only a recompute on resume, never the sweep.
func (o Options) journalValue(key string, v any) {
	if o.Journal == nil {
		return
	}
	val, err := json.Marshal(v)
	if err == nil {
		var rec []byte
		if rec, err = json.Marshal(cellRecord{Key: key, Val: val}); err == nil {
			err = o.Journal.Append(rec)
		}
	}
	if err != nil {
		slog.Warn("experiments: journal checkpoint failed", "key", key, "err", err)
	}
}

// journalRemoteCell checkpoints a verified fabric completion: the same
// completion record a local cell writes — Val is the worker's payload
// verbatim, which is also exactly what the grid cache now holds — plus
// the worker attribution. Exactly one completion record exists per
// cell: remote cells are journaled here (the local job then sees a
// cache hit and never runs), local cells via journalValue.
func journalRemoteCell(jnl *journal.Journal, key string, payload []byte) {
	if jnl == nil {
		return
	}
	rec, err := json.Marshal(cellRecord{Key: key, Val: payload, Worker: "fabric"})
	if err == nil {
		err = jnl.Append(rec)
	}
	if err != nil {
		slog.Warn("experiments: journal remote checkpoint failed", "key", key, "err", err)
	}
}

// journalFabricEvent appends one fabric state transition as a
// skippable annotation record.
func journalFabricEvent(jnl *journal.Journal, ev fabric.Event) {
	if jnl == nil {
		return
	}
	rec, err := json.Marshal(cellRecord{Type: "fabric." + ev.Type, Key: ev.Key, Worker: ev.Worker})
	if err == nil {
		err = jnl.Append(rec)
	}
	if err != nil {
		slog.Warn("experiments: journal fabric event failed", "event", ev.Type, "err", err)
	}
}

// OpenSweepJournal opens the checkpoint journal at path. With
// resume=false it starts fresh (truncating any prior journal). With
// resume=true it replays the journal — tolerating a torn final record
// from a crash mid-append — and seeds the in-process grid cache with
// every completed cell, so the resumed sweep serves them as cache hits
// instead of recomputing. It returns the journal positioned for further
// appends and the number of cells resumed.
func OpenSweepJournal(path string, resume bool) (*journal.Journal, int, error) {
	if !resume {
		j, err := journal.Create(path)
		return j, 0, err
	}
	seeded := 0
	j, err := journal.Open(path, func(rec []byte) error {
		var cell cellRecord
		if err := json.Unmarshal(rec, &cell); err != nil {
			return fmt.Errorf("experiments: corrupt journal cell: %w", err)
		}
		if cell.Type != "" {
			// Fabric event annotation: audit trail only. A lease or
			// expiry held when the coordinator died does not complete a
			// cell; only completion records seed the cache.
			return nil
		}
		gridCache.PutEncoded(cell.Key, cell.Val)
		seeded++
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return j, seeded, nil
}

// mixMetricsGrid evaluates every (mix, spec) pair through the shared
// scheduler: grid[i][j] pairs mixes[i] with specs[j]. Pairs run
// concurrently on up to Options.Parallel workers but are collected in
// submission order, and each pair is an independent deterministic
// simulation, so the grid is identical to nested sequential mixMetrics
// calls. Simulation panics surface as panics, as they would sequentially.
// When Options.Ctx is cancelled mid-grid the remaining cells error out
// and the grid returns nil (completed cells are already checkpointed);
// any other cell failure still panics.
func (o Options) mixMetricsGrid(mixes []workload.Mix, specs []PolicySpec) [][]MixMetrics {
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// Deadlines pass through to every pair; the queue stays unbounded
	// because the grid submits all pairs up front by design.
	sched := sim.NewSchedulerWith(sim.SchedulerConfig{
		Workers:        o.Parallel,
		Cache:          gridCache,
		DefaultTimeout: o.JobTimeout,
	})
	// With a fabric pool attached, offer every uncached wire-able cell
	// for remote lease before submitting the local jobs. The local
	// scheduler consumes the grid front-to-back while workers lease from
	// the back of this offer order — the two meet in the middle.
	if o.Fabric != nil {
		var cells []fabric.Cell
		for _, m := range mixes {
			for _, s := range specs {
				if gridCache.Contains(o.mixKey(m, s)) {
					o.Fabric.MarkDone(o.mixKey(m, s))
					continue
				}
				if cell, ok := o.cellFor(m, s); ok {
					cells = append(cells, cell)
				}
			}
		}
		o.Fabric.Offer(cells)
	}
	jobs := make([]sim.Job, 0, len(mixes)*len(specs))
	for _, m := range mixes {
		for _, s := range specs {
			m, s := m, s
			key := o.mixKey(m, s)
			jobs = append(jobs, sim.Job{
				Key:   key,
				Label: fmt.Sprintf("%s under %s", m.Name, s.Name),
				New:   func() any { return new(MixMetrics) },
				Run: func(ctx context.Context) (any, error) {
					// A fabric-distributed cell resolves through the
					// coordinator first: done remotely ⇒ adopt the
					// verified payload (already journaled by the
					// coordinator's sink); leased ⇒ wait it out; anything
					// else ⇒ claimed for the local path below.
					if o.Fabric != nil {
						if payload, remote := o.Fabric.AwaitOrClaim(ctx, key); remote {
							var mm MixMetrics
							if err := json.Unmarshal(payload, &mm); err == nil {
								return &mm, nil
							}
							// Version skew in a verified payload: fall
							// through and recompute locally.
						}
						if err := ctx.Err(); err != nil {
							return nil, err
						}
					}
					mm := o.mixMetrics(m, s)
					o.journalValue(key, &mm)
					return &mm, nil
				},
			})
		}
	}
	outs := sched.RunAll(ctx, jobs)
	grid := make([][]MixMetrics, len(mixes))
	k := 0
	for i := range mixes {
		grid[i] = make([]MixMetrics, len(specs))
		for j := range specs {
			out := outs[k]
			k++
			if out.Err != nil {
				if ctx.Err() != nil {
					// Interrupted, not broken: the caller reports the
					// partial sweep and points at -resume.
					return nil
				}
				panic(fmt.Sprintf("experiments: %s under %s: %v",
					mixes[i].Name, specs[j].Name, out.Err))
			}
			// A cached value shares IPC with the result cache, which is
			// read-only; the grid escapes into public results, so it
			// gets its own copy.
			mm := *out.Value.(*MixMetrics)
			mm.IPC = slices.Clone(mm.IPC)
			grid[i][j] = mm
		}
	}
	return grid
}

// fmtPC renders a core-tagged PC the way the harness prints them.
func fmtPC(pc uint64) string {
	core := pc >> 48
	if core != 0 {
		return fmt.Sprintf("c%d:%#x", core, pc&(1<<48-1))
	}
	return fmt.Sprintf("%#x", pc)
}
