package sim

import (
	"context"
	"encoding/json"
	"fmt"

	"nucache/internal/fabric"
)

// CellKindSim is the fabric cell kind for single simulations: the spec
// is a canonical Request (internal/sim JSON), the payload a Result.
const CellKindSim = "sim/v1"

// SimExecutor returns the fabric executor for CellKindSim cells. The
// payload is json.Marshal of the deterministic Result, so every worker
// — and the local path — produces byte-identical bytes for a cell.
func SimExecutor() fabric.Executor {
	return func(ctx context.Context, spec json.RawMessage) (json.RawMessage, error) {
		var req Request
		if err := json.Unmarshal(spec, &req); err != nil {
			return nil, fmt.Errorf("sim: fabric cell spec: %w", err)
		}
		req = req.Normalize()
		if err := req.Validate(); err != nil {
			return nil, err
		}
		res, err := Execute(ctx, req)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	}
}

// cellFor turns a request into its fabric cell. The spec is the
// normalized request itself; key is its job's content address, the one
// the result cache uses, so a remote completion lands exactly where a
// local one would.
func cellFor(req Request, key string) fabric.Cell {
	spec, _ := json.Marshal(req) // Request is a plain struct; cannot fail
	return fabric.Cell{Key: key, Kind: CellKindSim, Spec: spec}
}

// offerSweep makes a sweep's uncached cells available to the fabric
// pool. Cached cells are marked done so they are never leased. jobs[i]
// is reqs[i]'s job, whose Key is the cell's content address.
func (sv *Server) offerSweep(reqs []Request, jobs []Job) {
	if sv.coord == nil {
		return
	}
	cache := sv.sched.Cache()
	cells := make([]fabric.Cell, 0, len(reqs))
	var done []string
	for i, req := range reqs {
		key := jobs[i].Key
		if cache != nil && cache.Contains(key) {
			done = append(done, key)
			continue
		}
		cells = append(cells, cellFor(req, key))
	}
	sv.coord.Offer(cells)
	for _, key := range done {
		sv.coord.MarkDone(key)
	}
}

// fabricJob wraps a job so its Run first consults the coordinator:
// a cell completed remotely decodes the verified payload; a cell leased
// to a live worker blocks until the lease resolves; anything else is
// claimed locally and runs the original Run. Zero workers means every
// AwaitOrClaim returns a local claim immediately — the wrapper is then
// a no-op and the sweep is behaviorally identical to an un-distributed
// one.
func fabricJob(co *fabric.Coordinator, job Job) Job {
	run := job.Run
	job.Run = func(ctx context.Context) (any, error) {
		payload, remote := co.AwaitOrClaim(ctx, job.Key)
		if !remote {
			return run(ctx)
		}
		v := job.New()
		if err := json.Unmarshal(payload, v); err != nil {
			// A verified payload that doesn't decode is a version skew
			// between coordinator and worker builds; recompute locally
			// rather than trust it.
			return run(ctx)
		}
		return v, nil
	}
	return job
}
