// Command perfbench is the repository benchmark. It drives the shipped
// CLIs and HTTP service as cold child processes and reports what a user
// waits for; with -trace 1 it also times the calls into each layer's
// public functions in-process and reports the per-layer metrics.
//
// Run it through run.sh, which builds everything from source first:
//
//	bash perfbench/run.sh --workload grid4 --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Lines before it are a
// human-readable report: the host record, every metric with its sample
// count, and the workload-specific figures that are not gated. See
// plan.json for the metric definitions and the map from layer metrics to
// the end-to-end metrics they should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadDef is one benchmark workload. measure runs the untraced
// workload and returns the end-to-end metrics; with short set it runs
// one pass of each phase (the traced run uses it for proc.cores_busy).
// input names the representative cell the traced layer pass uses.
type workloadDef struct {
	measure func(r *run, short bool) (e2e map[string]metric, coresBusy float64)
	input   func(seed uint64) layerInput
}

var workloads = map[string]workloadDef{
	"grid4":  {measure: measureGrid4, input: grid4Input},
	"sweep1": {measure: measureSweep1, input: sweep1Input},
	"serve":  {measure: measureServe, input: serveInput},
}

func main() {
	var (
		name    = flag.String("workload", "", "grid4 | sweep1 | serve")
		seed    = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 20, "measured seconds per run")
		traced  = flag.Int("trace", 0, "1 = traced per-layer run, 0 = untraced end-to-end run")
		bin     = flag.String("bin", "", "directory holding the built CLIs")
		out     = flag.String("out", "", "build/output directory for scratch files and traces")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *bin == "" || *out == "" || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -bin DIR -out DIR --workload grid4|sweep1|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	r, err := newRun(*name, *bin, *out, *seed, time.Duration(*seconds)*time.Second)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defer r.close()

	host := detectHost(r.tmp)
	r.reportJSON("host", host)

	var m map[string]metric
	if *traced == 1 {
		m = tracedRun(r, w)
	} else {
		m, _ = w.measure(r, false)
	}
	if r.fatal != nil {
		r.close()
		fmt.Fprintln(os.Stderr, "perfbench:", r.fatal)
		os.Exit(1)
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
	r.report("error_rate = %.6f fraction (%d failed of %d attempted)",
		float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	for _, k := range sortedKeys(m) {
		r.report("metric %s = %.6g %s", k, m[k].Value, m[k].Unit)
	}
	rec := map[string]any{"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *traced, "host": host, "result": res}
	if err := writeJSONFile(filepath.Join(r.out, "records", fmt.Sprintf("%s-seed%d-trace%d.json", *name, *seed, *traced)), rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: record:", err)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
