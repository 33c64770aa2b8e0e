package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"nucache/internal/cache"
	"nucache/internal/cpu"
	"nucache/internal/journal"
	"nucache/internal/mrc"
	"nucache/internal/policy"
	"nucache/internal/sim"
	"nucache/internal/trace"
)

// layerInput is the representative cell a workload's traced layer pass
// runs: one of the workload's own mixes at its budget and seed.
type layerInput struct {
	mix    string
	budget uint64
	seed   uint64
}

// Repetition counts of the layer pass, sized so every timed loop lasts
// well above timer resolution and the pass finishes in seconds.
const (
	genPerCore        = 250_000
	minAccessRequests = 2_000_000
	keyLoops          = 20_000
	schedHitLoops     = 2_000
	handlerHitLoops   = 1_000
	memCacheOps       = 2_000
	diskCacheOps      = 200
	executePairs      = 3
	adviseLoops       = 2_000
	journalRecords    = 100
	journalRecordSize = 380 // one sweep cell's record
	layerSeedBase     = 2_000_000
)

// tracedRun is the --trace 1 run: one short untraced-style pass of the
// workload's own child processes (for proc.cores_busy), then the
// in-process layer pass, with spans around every call into a layer.
func tracedRun(r *run, w workloadDef) map[string]metric {
	r.tr = newTracer(fmt.Sprintf("%s-seed%d-%d", r.workload, r.seed, time.Now().UnixNano()))
	start := time.Now()
	endRun := r.tr.begin("run")
	e2e, busy := w.measure(r, true)
	m := map[string]metric{}
	if r.fatal == nil {
		m = r.layerPass(w.input(r.seed))
	}
	endRun()
	m["proc.cores_busy"] = metric{busy, "cores"}
	m["trace.unit_wall_s"] = metric{e2e["wall_s"].Value, "s"}
	m["trace.wall_s"] = metric{time.Since(start).Seconds(), "s"}
	summary, err := r.tr.write(filepath.Join(r.out, "trace"), fmt.Sprintf("%s-seed%d", r.workload, r.seed))
	if err != nil {
		r.fail(fmt.Errorf("writing spans: %w", err))
	}
	r.report("%s", summary)
	return m
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(max(n, 1)) }

// llcCapture collects one core's LLC-bound accesses from cpu.WalkTape.
type llcCapture struct {
	core int
	reqs []cache.Request
}

func (c *llcCapture) Access(addr, pc uint64, kind trace.Kind, _ bool) {
	c.reqs = append(c.reqs, cache.Request{Addr: addr, PC: pc, Core: c.core, Kind: kind})
}

// Crossing stops the walk at the budget snapshot (or stream end), as a
// replay run does; walking on would extend the tape without bound.
func (c *llcCapture) Crossing(cr trace.Crossing) bool { return cr.Kind == trace.CrossWarmup }

// layerPass times the public entry points of workload, cpu, cache/policy/
// core, sim, mrc and journal on in, each inside its own span.
func (r *run) layerPass(in layerInput) map[string]metric {
	tr := r.tr
	defer tr.begin("layers")()
	m := map[string]metric{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	mix, err := sim.Request{Mix: in.mix}.ResolveMix()
	if err != nil {
		r.fail(err)
		return m
	}
	cfg := cpu.DefaultConfig(mix.Cores())
	cfg.InstrBudget = in.budget

	// workload: synthetic access generation.
	generated := 0
	d := tr.timeSpan("workload.gen", func() {
		for _, s := range mix.Streams(in.seed) {
			for i := 0; i < genPerCore; i++ {
				if _, ok := s.Next(); !ok {
					break
				}
				generated++
			}
		}
	})
	m["workload.gen_ns_per_access"] = metric{nsPer(d, generated), "ns"}

	// cpu: the first pass over fresh tapes records and replays; the LRU
	// replay below walks the recorded tapes; the difference is recording.
	tapes := make([]*cpu.Tape, mix.Cores())
	for i, s := range mix.Streams(in.seed) {
		tapes[i] = cpu.NewTape(cfg, s)
	}
	bytes0 := cpu.TapeBytes()
	var rerr error
	recordPass := tr.timeSpan("cpu.record", func() {
		_, rerr = cpu.NewReplaySystem(cfg, policy.NewLRU(), tapes).Run()
	})
	tapeBytes := cpu.TapeBytes() - bytes0

	captures := make([]*llcCapture, len(tapes))
	events := 0
	tr.timeSpan("cpu.walk", func() {
		for i, t := range tapes {
			captures[i] = &llcCapture{core: i}
			if err := cpu.WalkTape(cfg, i, t, captures[i]); err != nil && rerr == nil {
				rerr = err
			}
			events += len(captures[i].reqs)
		}
	})
	if rerr != nil {
		r.fail(fmt.Errorf("recording tapes: %w", rerr))
		return m
	}
	m["cpu.tape_bytes_per_event"] = metric{float64(tapeBytes) / float64(max(events, 1)), "B"}

	var replayLRU time.Duration
	for _, name := range lineup {
		pol, err := sim.BuildPolicy(name, cfg.Cores, cfg.LLC.Ways, 6)
		if err != nil {
			r.fail(err)
			return m
		}
		rs := cpu.NewReplaySystem(cfg, pol, tapes)
		var res []cpu.CoreResult
		d := tr.timeSpan("cpu.replay."+name, func() { res, rerr = rs.Run() })
		if rerr != nil {
			r.fail(fmt.Errorf("replay %s: %w", name, rerr))
			return m
		}
		if name == "LRU" {
			replayLRU = d
		}
		m["cpu.replay_ns_per_event."+name] = metric{nsPer(d, events), "ns"}
		m["cache.llc_hit_ratio."+name] = metric{rs.LLC().Stats.HitRate(), "fraction"}
		if name == "NUcache" {
			out := sim.Collect(mix, pol, cfg, in.budget, in.seed, res, rs)
			m["core.deli_hit_share"] = metric{float64(out.NUcache.DeliHits) / float64(max(out.LLC.Hits, 1)), "fraction"}
		}
	}
	m["cpu.record_ns_per_event"] = metric{nsPer(recordPass-replayLRU, events), "ns"}

	// cache: the captured LLC stream, interleaved across cores, fed
	// straight into cache.Access; repeated to a fixed minimum length.
	stream := make([]cache.Request, 0, events)
	for k := 0; len(stream) < events; k++ {
		for _, c := range captures {
			if k < len(c.reqs) {
				stream = append(stream, c.reqs[k])
			}
		}
	}
	for _, name := range lineup {
		pol, _ := sim.BuildPolicy(name, cfg.Cores, cfg.LLC.Ways, 6)
		llc := cache.New(cfg.LLC, pol)
		n := 0
		d := tr.timeSpan("cache.access."+name, func() {
			for n < minAccessRequests {
				for k := range stream {
					llc.Access(&stream[k])
				}
				n += len(stream)
			}
		})
		m["cache.access_ns."+name] = metric{nsPer(d, n), "ns"}
	}

	// cpu: direct simulation, the engine every replay must match.
	var instr uint64
	d = tr.timeSpan("cpu.direct", func() {
		for _, cr := range cpu.NewSystem(cfg, policy.NewLRU(), mix.Streams(in.seed)).Run() {
			instr += cr.Instructions
		}
	})
	m["cpu.direct_ns_per_instr"] = metric{nsPer(d, int(instr)), "ns"}

	r.simLayer(in, m)
	r.journalLayer(m)

	runtime.ReadMemStats(&ms1)
	m["runtime.gc_cycles"] = metric{float64(ms1.NumGC - ms0.NumGC), "count"}
	m["runtime.total_alloc_mb"] = metric{float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20), "MB"}
	return m
}

// simLayer times the service layer (keys, scheduler, handler, result
// cache, one-cell execution) and the mrc model.
func (r *run) simLayer(in layerInput, m map[string]metric) {
	tr := r.tr
	ctx := context.Background()
	req := sim.Request{Mix: in.mix, Policy: "LRU", Budget: in.budget, Seed: in.seed}.Normalize()

	d := tr.timeSpan("sim.key", func() {
		for i := 0; i < keyLoops; i++ {
			_ = req.Key()
		}
	})
	m["sim.key_us"] = metric{nsPer(d, keyLoops) / 1e3, "us"}

	sched := sim.NewScheduler(1, sim.NewCache(1024, ""))
	var first sim.Outcome
	tr.timeSpan("sim.sched.compute", func() { first = sched.Do(ctx, sim.JobFor(req)) })
	if first.Err != nil {
		r.fail(first.Err)
		return
	}
	hitsOK := true
	d = tr.timeSpan("sim.sched.hit", func() {
		for i := 0; i < schedHitLoops; i++ {
			hitsOK = sched.Do(ctx, sim.JobFor(req)).Cached && hitsOK
		}
	})
	r.check(hitsOK, "Scheduler.Do on a cached key computed instead of hitting")
	m["sim.sched_hit_us"] = metric{nsPer(d, schedHitLoops) / 1e3, "us"}

	h := sim.NewServer(sched, sim.WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))).Handler()
	body, _ := json.Marshal(req)
	handlerOK := true
	d = tr.timeSpan("sim.handler.hit", func() {
		for i := 0; i < handlerHitLoops; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sim", bytes.NewReader(body)))
			handlerOK = handlerOK && rec.Code == http.StatusOK
		}
	})
	r.check(handlerOK, "in-process /v1/sim handler did not answer 200")
	m["sim.handler_hit_us"] = metric{nsPer(d, handlerHitLoops) / 1e3, "us"}

	res := first.Value.(*sim.Result)
	keys := make([]string, memCacheOps)
	for i := range keys {
		k := req
		k.Seed = uint64(layerSeedBase + i)
		keys[i] = k.Key()
	}
	cacheOps := func(label string, c func() *sim.Cache, n int) {
		put := c()
		d := tr.timeSpan("sim.cache.put."+label, func() {
			for _, k := range keys[:n] {
				put.Put(k, res)
			}
		})
		m["sim.cache_put_us."+label] = metric{nsPer(d, n) / 1e3, "us"}
		get := put
		if label == "disk" {
			get = c() // a fresh instance: empty memory tier, every Get reads disk
		}
		ok := true
		d = tr.timeSpan("sim.cache.get."+label, func() {
			for _, k := range keys[:n] {
				var v sim.Result
				ok = get.Get(k, &v) && ok
			}
		})
		r.check(ok, "result cache (%s) lost an entry", label)
		m["sim.cache_get_us."+label] = metric{nsPer(d, n) / 1e3, "us"}
	}
	cacheOps("mem", func() *sim.Cache { return sim.NewCache(2*memCacheOps, "") }, memCacheOps)
	dir := filepath.Join(r.tmp, "layer-cache")
	cacheOps("disk", func() *sim.Cache { return sim.NewCache(2*memCacheOps, dir) }, diskCacheOps)

	// One cell through sim.Execute: a fresh seed records its tapes, the
	// same mix and seed under another policy replays them.
	var rec, rep []float64
	var seed uint64
	for i := 0; i < executePairs; i++ {
		seed = layerSeedBase + in.seed*100 + uint64(i)
		execute := func(span, policy string) float64 {
			var err error
			d := tr.timeSpan(span, func() {
				_, err = sim.Execute(ctx, sim.Request{Mix: in.mix, Policy: policy, Budget: in.budget, Seed: seed})
			})
			if err != nil {
				r.fail(err)
			}
			return d.Seconds() * 1e3
		}
		rec = append(rec, execute("sim.execute.record", "LRU"))
		rep = append(rep, execute("sim.execute.replay", "NUcache"))
	}
	if r.fatal != nil {
		return
	}
	m["sim.execute_ms.record"] = metric{median(rec), "ms"}
	m["sim.execute_ms.replay"] = metric{median(rep), "ms"}

	// mrc: one profiling walk over the tapes just recorded, then the
	// analytical model.
	pr := sim.ProfileRequest{Mix: in.mix, Budget: in.budget, Seed: seed}
	var profile *mrc.Profile
	var err error
	d = tr.timeSpan("mrc.profile", func() { profile, err = sim.ExecuteProfile(ctx, pr) })
	if err != nil {
		r.fail(err)
		return
	}
	m["mrc.profile_ms"] = metric{d.Seconds() * 1e3, "ms"}
	r.check(profile.Validate() == nil, "profile of %s fails validation", in.mix)
	rng := rand.New(rand.NewPCG(in.seed, 0xad))
	asks := make([]sim.AdviseRequest, 64)
	for i := range asks {
		asks[i] = randomAdvise(rng, pr)
	}
	adviseOK := true
	d = tr.timeSpan("mrc.advise", func() {
		for i := 0; i < adviseLoops; i++ {
			_, err := sim.EvaluateAdvise(profile, asks[i%len(asks)])
			adviseOK = adviseOK && err == nil
		}
	})
	r.check(adviseOK, "EvaluateAdvise failed on a generated what-if")
	m["mrc.advise_us"] = metric{nsPer(d, adviseLoops) / 1e3, "us"}
}

// journalLayer times fsync'd appends of sweep-cell-sized records and the
// replay of the resulting journal.
func (r *run) journalLayer(m map[string]metric) {
	tr := r.tr
	path := filepath.Join(r.tmp, "layer.journal")
	j, err := journal.Create(path)
	if err != nil {
		r.fail(err)
		return
	}
	payload := bytes.Repeat([]byte("cell"), journalRecordSize/4)
	d := tr.timeSpan("journal.append", func() {
		for i := 0; i < journalRecords; i++ {
			if err == nil {
				err = j.Append(payload)
			}
		}
	})
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		r.fail(err)
		return
	}
	m["journal.append_us"] = metric{nsPer(d, journalRecords) / 1e3, "us"}
	records := 0
	d = tr.timeSpan("journal.replay", func() {
		j, err = journal.Open(path, func([]byte) error { records++; return nil })
	})
	if err != nil {
		r.fail(err)
		return
	}
	j.Close()
	r.check(records == journalRecords, "journal replayed %d of %d records", records, journalRecords)
	m["journal.replay_us_per_record"] = metric{nsPer(d, records) / 1e3, "us"}
}
