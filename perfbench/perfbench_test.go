package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/fstest"
	"time"

	"nucache/internal/cache"
	"nucache/internal/cpu"
	"nucache/internal/experiments"
	"nucache/internal/metrics"
	"nucache/internal/policy"
	"nucache/internal/stats"
	"nucache/internal/workload"
)

// removedInterfaces matches the engine switches, entry points and
// expvars that the planned grid-path and run-configuration cleanups
// delete. The benchmark must not use them, so those changes land without
// editing it.
var removedInterfaces = regexp.MustCompile(`(?i)multireplay|laneparallel|noreplay|RunMachine|LaneBudget|TryBorrow|Set[A-Za-z]*Disabled|\.Disable[A-Za-z]+`)

func TestSourcesAvoidRemovedInterfaces(t *testing.T) {
	for _, bad := range []string{"-nomultireplay", "-laneparallel", "-noreplay", "sim.RunMachineGrid", "cpu.MultiReplaySystem",
		"sim.LaneBudget", "sched.TryBorrow", "sim.SetReplayDisabled", "o.DisableMultiReplay", "nucache_multireplay_runs"} {
		if !removedInterfaces.MatchString(bad) {
			t.Fatalf("pattern misses %q", bad)
		}
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, "run.sh")
	scanned := 0
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue // the tests name the interfaces they forbid
		}
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		scanned++
		for i, line := range strings.Split(string(data), "\n") {
			if m := removedInterfaces.FindString(line); m != "" {
				t.Errorf("%s:%d uses %q", f, i+1, m)
			}
		}
	}
	if scanned < 5 {
		t.Fatalf("scanned only %d files", scanned)
	}
}

func TestProbeRejectsPerturbedAnswer(t *testing.T) {
	p := probe{class: "hit", marker: `"result":`, want: []byte(`{"ipc":1.25}`)}
	good := []byte(`{"key":"k","cached":true,"wall_ns":7,"result":{"ipc":1.25}}` + "\n")
	if !p.matches(good) {
		t.Fatal("expected answer rejected")
	}
	for _, bad := range [][]byte{
		bytes.Replace(good, []byte("1.25"), []byte("1.26"), 1),
		bytes.Replace(good, []byte(`"cached":true`), []byte(`"cached":false`), 1),
		[]byte(`{"error":"overloaded"}` + "\n"),
	} {
		if p.matches(bad) {
			t.Errorf("perturbed answer accepted: %s", bad)
		}
	}
}

// buildCLIs builds the shipped binaries into a temporary directory.
func buildCLIs(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"nucache/cmd/nucache-bench", "nucache/cmd/nucache-sweep", "nucache/cmd/nucache-serve")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestPerturbedReferenceFails runs the grid4 workload briefly against
// the stored references and against a copy with one digit changed: the
// first must pass, the second must count failures, so the reference
// check is not vacuous.
func TestPerturbedReferenceFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLIs and runs E7 twice")
	}
	bin := buildCLIs(t)
	const seed = 3
	name := fmt.Sprintf("refs/e7-seed%d.txt", grid4SimSeed(seed))
	orig, err := embeddedRefs.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	perturbed := bytes.Replace(orig, []byte("geomean  1.000x  +"), []byte("geomean  1.000x  -"), 1)
	if bytes.Equal(perturbed, orig) {
		t.Fatal("perturbation did not change the reference")
	}
	defer func() { refs = embeddedRefs }()
	for _, tc := range []struct {
		ref      []byte
		wantFail bool
	}{{orig, false}, {perturbed, true}} {
		fsys := fstest.MapFS{name: {Data: tc.ref}}
		for _, other := range []string{"refs/e4.txt", "refs/e7-quick.txt"} {
			data, err := embeddedRefs.ReadFile(other)
			if err != nil {
				t.Fatal(err)
			}
			fsys[other] = &fstest.MapFile{Data: data}
		}
		refs = fsys
		r, err := newRun("grid4", bin, t.TempDir(), seed, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		measureGrid4(r, true)
		r.close()
		if r.fatal != nil {
			t.Fatal(r.fatal)
		}
		if (r.failed > 0) != tc.wantFail || r.attempted == 0 {
			t.Errorf("perturbed=%v: %d of %d failed", tc.wantFail, r.failed, r.attempted)
		}
	}
}

// TestGrid4ReferencesMatchDirectSimulation recomputes every stored E7
// reference without the record/replay engine: each (mix, policy) cell
// and each alone IPC runs on cpu.NewSystem, and weighted speedup comes
// from metrics.WeightedSpeedup.
func TestGrid4ReferencesMatchDirectSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("direct simulation of every E7 cell for every stored seed")
	}
	type e7 struct {
		ref          string
		seed, budget uint64
		mixes        int
	}
	cases := []e7{{"e7-quick.txt", 1, quickBudget, quickMixes}}
	for k := uint64(1); k <= grid4Seeds; k++ {
		cases = append(cases, e7{fmt.Sprintf("e7-seed%d.txt", k), k, grid4Budget, len(workload.MixesFor(4))})
	}
	for _, c := range cases {
		t.Run(c.ref, func(t *testing.T) {
			want, err := embeddedRefs.ReadFile("refs/" + c.ref)
			if err != nil {
				t.Fatal(err)
			}
			if got := directE7(c.seed, c.budget, c.mixes); got != string(want) {
				t.Errorf("direct simulation differs from the stored reference:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// directE7 renders the E7 table over the first nmix 4-core mixes from
// direct simulation.
func directE7(seed, budget uint64, nmix int) string {
	const cores = 4
	cfg := cpu.DefaultConfig(cores)
	cfg.InstrBudget = budget
	specs := experiments.StandardPolicies()
	mixes := workload.MixesFor(cores)[:nmix]

	ipcs := func(m workload.Mix, pol cache.Policy, c cpu.Config) []float64 {
		var out []float64
		for _, r := range cpu.NewSystem(c, pol, m.Streams(seed)).Run() {
			out = append(out, r.IPC())
		}
		return out
	}
	var mu sync.Mutex
	alone := map[string]float64{}
	ws := make([][]float64, len(mixes))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, m := range mixes {
		ws[i] = make([]float64, len(specs))
		for j, s := range specs {
			wg.Add(1)
			sem <- struct{}{}
			go func(i, j int, m workload.Mix, s experiments.PolicySpec) {
				defer func() { <-sem; wg.Done() }()
				shared := ipcs(m, s.New(cores, cfg.LLC.Ways), cfg)
				solo := make([]float64, len(m.Members))
				for c, b := range m.Members {
					mu.Lock()
					v, ok := alone[b]
					mu.Unlock()
					if !ok {
						one := cfg
						one.Cores = 1
						v = ipcs(workload.Mix{Name: "alone/" + b, Members: []string{b}}, policy.NewLRU(), one)[0]
						mu.Lock()
						alone[b] = v
						mu.Unlock()
					}
					solo[c] = v
				}
				ws[i][j] = metrics.WeightedSpeedup(shared, solo)
			}(i, j, m, s)
		}
	}
	wg.Wait()

	headers := []string{"mix"}
	for _, s := range specs {
		headers = append(headers, s.Name)
	}
	t := metrics.NewTable(fmt.Sprintf("E7: %d-core weighted speedup (normalized to %s)", cores, specs[0].Name), headers...)
	for i, m := range mixes {
		row := []string{m.Name, metrics.F3(ws[i][0])}
		for j := 1; j < len(specs); j++ {
			row = append(row, metrics.Pct(ws[i][j]/ws[i][0]))
		}
		t.AddRow(row...)
	}
	gm := []string{"geomean", "1.000x"}
	for j := 1; j < len(specs); j++ {
		var ratios []float64
		for i := range mixes {
			ratios = append(ratios, ws[i][j]/ws[i][0])
		}
		gm = append(gm, metrics.Pct(stats.GeoMean(ratios)))
	}
	t.AddRow(gm...)
	var b bytes.Buffer
	t.Render(&b)
	return b.String() + "\n"
}
