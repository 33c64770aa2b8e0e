package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"nucache/internal/sim"
	"nucache/internal/workload"
)

// serve is a cold `nucache-serve -workers max(1, nproc-1)` with a fresh
// disk cache under a closed loop of max(2, nproc) clients: each client
// waits for its reply before it sends the next request. Every client
// draws each request's class from its own seeded sequence: a repeat of a
// warmed /v1/sim key (hit), a fresh /v1/sim cell, or a /v1/advise
// what-if against a warmed profile. A client's fresh cells alternate
// between a new seed that records its tapes and the same mix and seed
// under another policy that replays them. The service path does most of
// the work; the grid path is bypassed.
//
// The class shares are assumed, not measured: no traffic of this service
// has been recorded. Hits and advise what-ifs split the requests equally,
// so neither is favoured by assumption. Fresh cells are the smallest
// share that still keeps the worker busy, so that over a run the hit and
// advise p99 each have more than ten samples beyond them; fresh cells
// still take nearly all of the server's time. They run back to back, so
// the server's tapes grow to the cpu tape budget within a run and later
// cells simulate directly, as under any sustained fresh traffic.
const (
	serveBudget = 150_000
	serveStarts = 40 // cold starts timed for setup_s; the last one serves
	// Request shares: serveHitShare hits, serveFreshShare fresh cells,
	// the rest advise what-ifs.
	serveHitShare   = 0.47
	serveFreshShare = 0.06
	// Warmed before timing, drawn from the seed. All hits are answered
	// from the memory tier whatever their number; each key and profile
	// costs a server computation and an oracle one in set-up, so there
	// are few.
	serveHitKeys    = 6
	serveProfiles   = 2
	serveAdviseAsks = 64 // precomputed what-ifs, spread over the profiles
	// Fresh cells use seeds from freshSeedBase up, a disjoint range per
	// client, so they never meet a warmed key or tape (warmed seeds are
	// 1..3) or each other.
	freshSeedBase = 1_000_000
	// Fresh answers checked against direct simulation per run, per kind.
	freshOracleChecks = 2
)

var lineup = []string{"LRU", "NUcache", "UCP", "PIPP", "TADIP"}

func serveInput(seed uint64) layerInput {
	mixes := workload.MixesFor(4)
	return layerInput{mix: mixes[seed%uint64(len(mixes))].Name, budget: serveBudget, seed: 1 + seed%3}
}

// server is one running nucache-serve child.
type server struct {
	cmd    *exec.Cmd
	base   string
	start  time.Time
	logged chan struct{} // closed once the child's stderr hits EOF
}

// startServer spawns the service and returns once /readyz answers 200,
// with the time from spawn to that answer.
func (r *run) startServer(cacheDir string, workers int) (*server, time.Duration, error) {
	cmd := r.command("nucache-serve", "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(workers), "-cachedir", cacheDir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, start: time.Now(), logged: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	addr := make(chan string, 1)
	go func() {
		defer close(s.logged)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		found := false
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok && !found {
				found = true
				addr <- strings.Fields(rest)[0]
			}
		}
		if !found {
			close(addr)
		}
		io.Copy(io.Discard, stderr)
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			s.stop()
			return nil, 0, fmt.Errorf("nucache-serve exited before listening")
		}
		s.base = "http://" + a
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, 0, fmt.Errorf("nucache-serve did not listen within 60s")
	}
	for time.Since(s.start) < 60*time.Second {
		resp, err := http.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(s.start), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	s.stop()
	return nil, 0, fmt.Errorf("nucache-serve not ready within 60s")
}

// stop sends SIGTERM, waits for the child to exit and returns its wall
// time, CPU time and peak RSS.
func (s *server) stop() child {
	s.cmd.Process.Signal(syscall.SIGTERM)
	<-s.logged
	err := s.cmd.Wait()
	c := child{wall: time.Since(s.start), err: err}
	c.cpu, c.rssMB = usage(s.cmd.ProcessState)
	return c
}

// cpuTime reads the child's user+system time from /proc (USER_HZ=100).
func (s *server) cpuTime() time.Duration {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	_, rest, _ := strings.Cut(string(data), ") ")
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

var httpClient = &http.Client{
	Timeout:   5 * time.Minute,
	Transport: &http.Transport{MaxIdleConnsPerHost: 64, DisableCompression: true},
}

func post(url string, body any) (int, []byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	return postRaw(url, data)
}

func postRaw(url string, data []byte) (int, []byte, error) {
	resp, err := httpClient.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// probe is a hit or advise request with its expected answer: the JSON
// the response must carry after marker (the last field of the envelope),
// computed before timing by direct simulation or the in-process model.
type probe struct {
	class  string // hit | advise
	url    string
	body   []byte
	marker string
	want   []byte
}

func (p probe) matches(resp []byte) bool {
	i := bytes.Index(resp, []byte(p.marker))
	if i < 0 || (p.class == "hit" && !bytes.Contains(resp[:i], []byte(`"cached":true`))) {
		return false
	}
	return bytes.Equal(bytes.TrimSuffix(resp[i+len(p.marker):], []byte("}\n")), p.want)
}

// exchange is one timed request. Hit and advise answers are checked as
// they arrive, so only fresh-cell answers are kept.
type exchange struct {
	class  string // hit | advise | record | replay
	lat    time.Duration
	ok     bool
	req    sim.Request
	status int
	body   []byte
	err    error
}

// freshCells generates the fresh /v1/sim cells: each new seed records
// its tapes under one policy, then the same mix and seed replays them
// under another. Mixes and policies cycle (mixes in a seeded order), so
// every run asks for the same blend of cells.
type freshCells struct {
	perm    []int
	base    uint64
	k       int
	pending *sim.Request
}

func (f *freshCells) next() (sim.Request, string) {
	if p := f.pending; p != nil {
		f.pending = nil
		return *p, "replay"
	}
	mixes := workload.MixesFor(4)
	mix := mixes[f.perm[f.k%len(f.perm)]].Name
	seed := f.base + uint64(f.k)
	first := f.k % len(lineup)
	second := (first + 1 + f.k/len(lineup)%(len(lineup)-1)) % len(lineup)
	f.pending = &sim.Request{Mix: mix, Policy: lineup[second], Budget: serveBudget, Seed: seed}
	f.k++
	return sim.Request{Mix: mix, Policy: lineup[first], Budget: serveBudget, Seed: seed}, "record"
}

// randomAdvise draws one what-if: a random static partition, the best
// partition, a NUcache DeliWays split, or shared LRU.
func randomAdvise(rng *rand.Rand, pr sim.ProfileRequest) sim.AdviseRequest {
	req := sim.AdviseRequest{ProfileRequest: pr}
	switch rng.IntN(4) {
	case 0:
		req.Policy = "part"
		req.Alloc = []int{1, 1, 1, 1}
		for w := 4; w < 16; w++ {
			req.Alloc[rng.IntN(4)]++
		}
	case 1:
		req.Policy, req.Best = "part", true
	case 2:
		req.Policy, req.DeliWays = "nucache", 1+rng.IntN(10)
	default:
		req.Policy = "lru"
	}
	return req
}

// serveProbes warms the hit keys and advise profiles on the server and
// computes every probe's expected answer.
func (r *run) serveProbes(srv *server, rng *rand.Rand) (hits, advise []probe) {
	mixes := workload.MixesFor(4)
	for i := 0; i < serveHitKeys; i++ {
		req := sim.Request{Mix: mixes[rng.IntN(len(mixes))].Name, Policy: lineup[rng.IntN(len(lineup))],
			Budget: serveBudget, Seed: 1 + uint64(rng.IntN(3))}
		body, _ := json.Marshal(req)
		end := r.tr.begin("proc.nucache-serve-warm")
		status, _, err := postRaw(srv.base+"/v1/sim", body)
		end()
		r.check(err == nil && status == http.StatusOK, "warm %s: status %d %v", req.Key(), status, err)
		res, err := r.directResult(req)
		if err != nil {
			r.fail(err)
			return nil, nil
		}
		want, _ := json.Marshal(res)
		hits = append(hits, probe{class: "hit", url: srv.base + "/v1/sim", body: body, marker: `"result":`, want: want})
	}
	for i := 0; i < serveProfiles; i++ {
		pr := sim.ProfileRequest{Mix: mixes[rng.IntN(len(mixes))].Name, Budget: serveBudget, Seed: 1 + uint64(rng.IntN(3))}
		end := r.tr.begin("proc.nucache-serve-warm")
		status, _, err := post(srv.base+"/v1/profile", pr)
		end()
		r.check(err == nil && status == http.StatusOK, "warm profile %s: status %d %v", pr.Mix, status, err)
		end = r.tr.begin("oracle.profile")
		prof, err := sim.ExecuteProfile(context.Background(), pr)
		end()
		if err != nil {
			r.fail(err)
			return nil, nil
		}
		for j := 0; j < serveAdviseAsks/serveProfiles; j++ {
			ask := randomAdvise(rng, pr)
			pred, err := sim.EvaluateAdvise(prof, ask)
			if err != nil {
				r.fail(fmt.Errorf("advise %s %s: %w", pr.Mix, ask.Policy, err))
				return nil, nil
			}
			body, _ := json.Marshal(ask)
			want, _ := json.Marshal(pred)
			advise = append(advise, probe{class: "advise", url: srv.base + "/v1/advise", body: body, marker: `"prediction":`, want: want})
		}
	}
	return hits, advise
}

func measureServe(r *run, short bool) (map[string]metric, float64) {
	workers := max(1, runtime.NumCPU()-1)
	clients := max(2, runtime.NumCPU())
	rng := rand.New(rand.NewPCG(r.seed, 0x5e7e))

	var srv *server
	var setups []float64
	for i := 0; i < pick(short, serveStarts, 1); i++ {
		if srv != nil {
			srv.stop()
		}
		end := r.tr.begin("proc.nucache-serve-start")
		s, ready, err := r.startServer(filepath.Join(r.tmp, fmt.Sprintf("cache-%d", i)), workers)
		end()
		if err != nil {
			r.fail(err)
			return nil, 0
		}
		setups = append(setups, ready.Seconds())
		srv = s
	}
	hits, advise := r.serveProbes(srv, rng)
	if r.fatal != nil {
		srv.stop()
		return nil, 0
	}

	timed := pick(short, r.seconds, 5*time.Second)
	logs := make([][]exchange, clients)
	endTimed := r.tr.begin("proc.nucache-serve-traffic")
	cpu0 := srv.cpuTime()
	start := time.Now()
	deadline := start.Add(timed)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			crng := rand.New(rand.NewPCG(r.seed, uint64(c)+1))
			fresh := &freshCells{perm: crng.Perm(len(workload.MixesFor(4))),
				base: freshSeedBase + (r.seed%1000*uint64(clients)+uint64(c))*10_000}
			for time.Now().Before(deadline) {
				var ex exchange
				switch u := crng.Float64(); {
				case u < serveFreshShare:
					ex.req, ex.class = fresh.next()
					t := time.Now()
					ex.status, ex.body, ex.err = post(srv.base+"/v1/sim", ex.req)
					ex.lat = time.Since(t)
					ex.ok = ex.err == nil && ex.status == http.StatusOK
				default:
					p := advise[crng.IntN(len(advise))]
					if u < serveFreshShare+serveHitShare {
						p = hits[crng.IntN(len(hits))]
					}
					t := time.Now()
					status, body, err := postRaw(p.url, p.body)
					ex = exchange{class: p.class, lat: time.Since(t), status: status, err: err}
					ex.ok = err == nil && status == http.StatusOK && p.matches(body)
				}
				logs[c] = append(logs[c], ex)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	busy := (srv.cpuTime() - cpu0).Seconds() / elapsed.Seconds()
	endTimed()
	final := srv.stop()

	byClass := map[string][]time.Duration{}
	var freshLog []exchange
	n := 0
	for _, l := range logs {
		for _, ex := range l {
			byClass[ex.class] = append(byClass[ex.class], ex.lat)
			n++
			if ex.class == "hit" || ex.class == "advise" {
				r.check(ex.ok, "%s answer differs from its expected value (status %d, %v)", ex.class, ex.status, ex.err)
			} else {
				freshLog = append(freshLog, ex)
			}
		}
	}
	r.checkFresh(freshLog)

	fresh := append(append([]time.Duration(nil), byClass["record"]...), byClass["replay"]...)
	hitN, freshN := len(byClass["hit"]), len(fresh)
	r.report("timed %.1f s, %d clients, %d workers: req_per_s = %.3f req/s (n=%d); sim cache_hit_ratio = %.4f (n=%d); cores busy %.2f",
		elapsed.Seconds(), clients, workers, float64(n)/elapsed.Seconds(), n,
		float64(hitN)/float64(max(hitN+freshN, 1)), hitN+freshN, busy)
	for _, class := range []string{"hit", "advise", "record", "replay"} {
		reportLatency(r, class, byClass[class])
	}
	reportLatency(r, "uncached", fresh)
	r.report("peak_rss_mb = %.1f MB (server); setup_s = spawn to first 200 from /readyz, median of %d", final.rssMB, len(setups))
	q := millis(byClass["hit"])
	return map[string]metric{
		"setup_s":      {median(setups), "s"},
		"wall_s":       {mean(seconds(fresh)), "s"},
		"quick_p50_ms": {quantile(q, 0.5), "ms"},
		"peak_rss_mb":  {final.rssMB, "MB"},
	}, busy
}

func reportLatency(r *run, class string, lats []time.Duration) {
	ms := millis(lats)
	q := tailQuantile(len(ms))
	r.report("%s latency: p50 %.3f ms, p90 %.3f ms, p%g %.3f ms, mean %.3f ms (n=%d)",
		class, quantile(ms, 0.5), quantile(ms, 0.9), q*100, quantile(ms, q), mean(ms), len(ms))
}

// checkFresh checks every fresh-cell answer: it must succeed, be freshly
// computed and describe the cell asked for; the first few of each kind
// must also equal direct simulation.
func (r *run) checkFresh(log []exchange) {
	checked := map[string]int{}
	for _, ex := range log {
		var resp sim.SimResponse
		if !ex.ok || json.Unmarshal(ex.body, &resp) != nil || resp.Result == nil || resp.Cached {
			r.check(false, "%s %s: status %d, cached=%v, %v", ex.class, ex.req.Key(), ex.status, resp.Cached, ex.err)
			continue
		}
		if checked[ex.class] >= freshOracleChecks {
			r.check(resp.Result.Seed == ex.req.Seed && resp.Result.Mix == ex.req.Mix, "%s answer describes the wrong cell", ex.class)
			continue
		}
		checked[ex.class]++
		want, err := r.directResult(ex.req)
		if err != nil {
			r.fail(err)
			return
		}
		got, _ := json.Marshal(resp.Result)
		exp, _ := json.Marshal(want)
		r.check(bytes.Equal(got, exp), "%s %s differs from direct simulation", ex.class, ex.req.Key())
	}
}
