package main

// Distributed chaos suite: run the sweep with an embedded fabric
// coordinator and real worker *processes* (this test binary in
// beWorker mode), then kill a worker at every fabric failpoint site —
// holding a fresh lease, with a computed-but-undelivered result, and
// mid-heartbeat — and kill the coordinator itself mid-sweep. In every
// case the surviving run (or a workerless -resume) must produce stdout
// byte-identical to a single-node golden run.

import (
	"bufio"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nucache/internal/failpoint"
)

// distBudget sizes the distributed chaos workload: big enough that a
// serialized local pass (-parallel 1) takes seconds, so
// worker processes spawned a beat after the coordinator announces its
// address reliably lease cells from the back of the queue before the
// local sweep reaches them.
const distBudget = "300000"

// distSweepArgs is sweepArgs for the distributed suite: same grid (2
// mixes x 6 specs = 12 cells), heavier budget, local execution forced
// serial. Output is bit-identical across worker counts,
// so distributed runs still compare against the (fast, parallel)
// golden byte for byte.
func distSweepArgs(journalPath string, resume bool, extra ...string) []string {
	args := append([]string{
		"-sweep", "deliways", "-budget", distBudget, "-mixlimit", "2",
		"-parallel", "1", "-journal", journalPath,
	}, extra...)
	if resume {
		args = append(args, "-resume")
	}
	return args
}

// distributedSweep starts a journaled sweep with `-distribute
// 127.0.0.1:0`, scrapes the coordinator's bound address from stderr
// while the sweep is running, launches one worker process per env
// slice (nil = clean worker), and waits for the sweep to finish.
// Worker processes are killed at test cleanup; callers that expect a
// worker to die on its own (armed failpoints) assert on the returned
// cmds first.
func distributedSweep(t *testing.T, jpath string, sweepEnv []string, workerEnvs [][]string) (stdout, stderr string, workers []*exec.Cmd, err error) {
	t.Helper()
	// Lease long enough that a cell finishes inside it even under the
	// race detector; dead-worker detection rides on the 100ms heartbeat
	// (3 missed beats), not the lease TTL, so recovery stays fast.
	args := distSweepArgs(jpath, false,
		"-distribute", "127.0.0.1:0", "-lease", "60s", "-heartbeat", "100ms")
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(append(os.Environ(), beBinary+"=1"), sweepEnv...)
	var out strings.Builder
	cmd.Stdout = &out
	pipe, perr := cmd.StderrPipe()
	if perr != nil {
		t.Fatal(perr)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	addrCh := make(chan string, 1)
	var errb strings.Builder
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(pipe)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			errb.WriteString(line)
			errb.WriteByte('\n')
			const marker = "fabric coordinator listening on "
			if i := strings.Index(line, marker); i >= 0 {
				if f := strings.Fields(line[i+len(marker):]); len(f) > 0 {
					select {
					case addrCh <- f[0]:
					default:
					}
				}
			}
		}
	}()

	var addr string
	select {
	case addr = <-addrCh:
	case <-scanDone:
		err := cmd.Wait()
		t.Fatalf("sweep exited (%v) before announcing its coordinator address\nstderr: %s", err, errb.String())
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("coordinator address not announced within 30s")
	}

	for _, wenv := range workerEnvs {
		w := exec.Command(os.Args[0])
		w.Env = append(append(os.Environ(), beWorker+"=http://"+addr), wenv...)
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
		t.Cleanup(func() {
			w.Process.Kill()
			w.Wait() // double Wait after waitExit is fine; error ignored
		})
	}

	<-scanDone
	err = cmd.Wait()
	return out.String(), errb.String(), workers, err
}

// waitExit waits for a process the test expects to end on its own.
func waitExit(t *testing.T, cmd *exec.Cmd, within time.Duration) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(within):
		t.Fatalf("pid %d did not exit within %v", cmd.Process.Pid, within)
		return nil
	}
}

// TestDistributedSweepChaos is the fabric's end-to-end contract: a
// distributed sweep's stdout is byte-identical to a single-node run
// whether the worker pool is healthy, a worker dies at any fabric
// failpoint site, or the coordinator itself is killed and resumed.
func TestDistributedSweepChaos(t *testing.T) {
	dir := t.TempDir()
	golden8 := []string{
		"-sweep", "deliways", "-budget", distBudget, "-mixlimit", "2",
		"-parallel", "2", "-journal", filepath.Join(dir, "golden.journal"),
	}
	goldenOut, goldenErr, err := runMain(t, golden8...)
	if err != nil {
		t.Fatalf("golden run failed: %v\nstderr: %s", err, goldenErr)
	}
	golden := stripTimings(goldenOut)

	t.Run("clean-pool", func(t *testing.T) {
		jpath := filepath.Join(dir, "clean_pool.journal")
		out, errOut, _, err := distributedSweep(t, jpath, nil, [][]string{nil, nil})
		if err != nil {
			t.Fatalf("distributed sweep failed: %v\nstderr: %s", err, errOut)
		}
		if got := stripTimings(out); got != golden {
			t.Fatalf("distributed stdout diverged from single-node golden\n--- golden ---\n%s\n--- distributed ---\n%s", golden, got)
		}
		if !strings.Contains(errOut, "12 cells offered") {
			t.Errorf("fabric summary missing the offered-cell count:\n%s", errOut)
		}
		if !strings.Contains(errOut, "2 workers") {
			t.Errorf("fabric summary does not show both workers joined:\n%s", errOut)
		}
	})

	// One worker is armed to die at each fabric site; its clean sibling
	// and the local executor of last resort must finish the sweep with
	// byte-identical output regardless.
	sites := []string{"fabric.lease.grant", "fabric.result.recv", "fabric.heartbeat"}
	for _, site := range sites {
		site := site
		t.Run("worker-killed-at-"+site, func(t *testing.T) {
			jpath := filepath.Join(dir, strings.ReplaceAll(site, ".", "_")+".journal")
			spec := site + "=exit@1"
			t.Logf("arming %s in worker 0", spec)
			out, errOut, workers, err := distributedSweep(t, jpath, nil,
				[][]string{{failpoint.EnvVar + "=" + spec}, nil})
			if err != nil {
				t.Fatalf("sweep did not survive a worker killed at %s: %v\nstderr: %s", site, err, errOut)
			}
			werr := waitExit(t, workers[0], 60*time.Second)
			var exit *exec.ExitError
			if werr == nil {
				t.Fatalf("armed worker survived %s", spec)
			}
			if !errors.As(werr, &exit) || exit.ExitCode() != failpoint.ExitCode {
				t.Fatalf("armed worker exit = %v, want code %d", werr, failpoint.ExitCode)
			}
			if got := stripTimings(out); got != golden {
				t.Fatalf("sweep with worker killed at %s diverged from golden\n--- golden ---\n%s\n--- got ---\n%s", site, golden, got)
			}
		})
	}

	t.Run("coordinator-killed-mid-sweep", func(t *testing.T) {
		jpath := filepath.Join(dir, "coord_kill.journal")
		// journal.append fires on every checkpoint — cell completions and
		// fabric event annotations alike — so the 5th hit lands with the
		// pool joined and the grid in flight.
		spec := "journal.append=exit@5"
		t.Logf("arming %s in the coordinator", spec)
		_, errOut, _, err := distributedSweep(t, jpath,
			[]string{failpoint.EnvVar + "=" + spec}, [][]string{nil, nil})
		var exit *exec.ExitError
		if err == nil {
			t.Fatalf("coordinator survived %s", spec)
		}
		if !errors.As(err, &exit) || exit.ExitCode() != failpoint.ExitCode {
			t.Fatalf("coordinator exit = %v, want code %d\nstderr: %s", err, failpoint.ExitCode, errOut)
		}

		// Resume single-node, no workers: completions replay from the
		// journal (fabric annotations are skipped), the rest recomputes
		// locally, and stdout must match the golden byte for byte.
		out, errOut, err := runMain(t, distSweepArgs(jpath, true)...)
		if err != nil {
			t.Fatalf("workerless resume after coordinator kill failed: %v\nstderr: %s", err, errOut)
		}
		if got := stripTimings(out); got != golden {
			t.Fatalf("resume after coordinator kill diverged from golden\n--- golden ---\n%s\n--- resumed ---\n%s", golden, got)
		}
		if !strings.Contains(errOut, "records (") {
			t.Fatalf("resumed journal summary missing:\n%s", errOut)
		}
	})
}
