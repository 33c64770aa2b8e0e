package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"syscall"
	"time"
)

// run is one benchmark invocation: its paths, seed, time budget, the
// attempted/failed counters every correctness check feeds, and the
// tracer (nil in untraced runs).
type run struct {
	workload string
	bin      string
	out, tmp string
	seed     uint64
	seconds  time.Duration

	attempted, failed int
	fatal             error // an error that leaves no result to report
	tr                *tracer
}

func newRun(workload, bin, out string, seed uint64, seconds time.Duration) (*run, error) {
	// Children run in the scratch dir, so every path must be absolute.
	for _, p := range []*string{&bin, &out} {
		abs, err := filepath.Abs(*p)
		if err != nil {
			return nil, err
		}
		*p = abs
	}
	for _, name := range []string{"nucache-bench", "nucache-sweep", "nucache-serve"} {
		if _, err := os.Stat(filepath.Join(bin, name)); err != nil {
			return nil, fmt.Errorf("missing binary: %w", err)
		}
	}
	if err := os.MkdirAll(filepath.Join(out, "tmp"), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(out, "tmp"), workload+"-")
	if err != nil {
		return nil, err
	}
	return &run{workload: workload, bin: bin, out: out, tmp: tmp, seed: seed, seconds: seconds}, nil
}

func (r *run) close() { os.RemoveAll(r.tmp) }

// check counts one correctness-checked operation; ok=false counts it as
// failed and reports why.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if r.failed <= 5 {
			r.report("FAILED: "+format, args...)
		}
	}
}

func (r *run) fail(err error) {
	if r.fatal == nil {
		r.fatal = err
	}
}

func (r *run) report(format string, args ...any) {
	fmt.Printf("perfbench: %s: %s\n", r.workload, fmt.Sprintf(format, args...))
}

func (r *run) reportJSON(label string, v any) {
	data, _ := json.Marshal(v)
	r.report("%s %s", label, data)
}

// child is one finished child process.
type child struct {
	wall   time.Duration
	cpu    time.Duration // user + system
	rssMB  float64       // peak resident set
	stdout []byte
	err    error
}

// childEnv is the environment children run with: GOMAXPROCS is left to
// the runtime (nproc) and no failpoint is armed.
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "GOMAXPROCS=") || strings.HasPrefix(kv, "NUCACHE_FAILPOINTS=") {
			continue
		}
		env = append(env, kv)
	}
	return env
}

func (r *run) command(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(filepath.Join(r.bin, name), args...)
	cmd.Dir = r.tmp
	cmd.Env = childEnv()
	// A child outlives the benchmark only if the benchmark is killed;
	// take it down too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// exec runs a CLI to completion and measures it.
func (r *run) exec(name string, args ...string) child {
	cmd := r.command(name, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	c := child{wall: time.Since(start), stdout: stdout.Bytes()}
	if err != nil {
		c.err = fmt.Errorf("%s %s: %v: %s", name, strings.Join(args, " "), err, lastLine(stderr.String()))
	}
	c.cpu, c.rssMB = usage(cmd.ProcessState)
	return c
}

func usage(ps *os.ProcessState) (time.Duration, float64) {
	if ps == nil {
		return 0, 0
	}
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// footer matches the wall-clock and save lines the CLIs print after each
// table; they differ between identical runs.
var footer = regexp.MustCompile(`(?m)^\((?:[^()]* in [^()]*|saved [^()]*)\)\n`)

// tables strips timing footers so outputs compare byte for byte.
func tables(stdout []byte) string { return footer.ReplaceAllString(string(stdout), "") }

// repeat runs fn at least min times, then, unless short, while another
// run is expected to end within the run's measured seconds.
func (r *run) repeat(min int, short bool, fn func() time.Duration) {
	start := time.Now()
	var walls []float64
	for len(walls) < min || (!short && time.Since(start)+time.Duration(median(walls)*float64(time.Second)) <= r.seconds) {
		walls = append(walls, fn().Seconds())
		if r.fatal != nil {
			return
		}
	}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(max(len(xs), 1))
}

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQuantile is the highest of p99, p95, p90 and p75 that has at least
// ten of n samples beyond it; p50 when none has.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.95, 0.9, 0.75} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.5
}

func seconds(xs []time.Duration) []float64 {
	out := make([]float64, len(xs))
	for i, d := range xs {
		out[i] = d.Seconds()
	}
	return out
}

func millis(xs []time.Duration) []float64 {
	out := make([]float64, len(xs))
	for i, d := range xs {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
