package main

import (
	"nucache/internal/cpu"
	"nucache/internal/sim"
)

// directResult simulates req on cpu.NewSystem, never through the
// record/replay engine: the reference served /v1/sim answers are checked
// against. It covers the requests this benchmark sends (default machine
// knobs: no L2, DRAM, prefetch, warm-up or static allocation).
func (r *run) directResult(req sim.Request) (*sim.Result, error) {
	defer r.tr.begin("oracle.direct")()
	req = req.Normalize()
	mix, err := req.ResolveMix()
	if err != nil {
		return nil, err
	}
	cfg := cpu.DefaultConfig(mix.Cores())
	cfg.InstrBudget = req.Budget
	pol, err := sim.BuildPolicy(req.Policy, cfg.Cores, cfg.LLC.Ways, req.DeliWays)
	if err != nil {
		return nil, err
	}
	sys := cpu.NewSystem(cfg, pol, mix.Streams(req.Seed))
	return sim.Collect(mix, pol, cfg, req.Budget, req.Seed, sys.Run(), sys), nil
}
