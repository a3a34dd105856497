package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"heteronoc/internal/dse"
	"heteronoc/internal/experiments"
	"heteronoc/internal/runcache"
	"heteronoc/internal/serve"
)

// serveMixed is the serve-mixed workload: an in-process serve.Server with
// one worker on a loopback listener and a fresh disk cache per round. Two
// closed-loop clients act as two tenants: a figure requester POSTing
// /run, and a DSE searcher running dse.Search through a
// serve.RemoteEvaluator (one /eval batch per generation). Then the server
// restarts on the same cache directory with an empty memory tier and the
// same streams replay, so memory hits come first and disk hits after the
// restart.
type serveMixed struct {
	in        serveInputs
	scales    map[string]experiments.Scale
	work      string
	transport *http.Transport
}

func newServeMixed(in serveInputs) (bench, error) {
	runcache.SetEnabled(true)
	scales := map[string]experiments.Scale{}
	for _, s := range in.Scales {
		sc := experiments.Quick()
		sc.Name, sc.WarmupPackets, sc.MeasurePackets = s.Name, s.WarmupPackets, s.MeasurePackets
		scales[s.Name] = sc
	}
	work, err := os.MkdirTemp("", "perfbench-serve-")
	if err != nil {
		return nil, err
	}
	// Two tenants, one connection each: the load never exceeds the two
	// CPUs the benchmark assumes.
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	return &serveMixed{in: in, scales: scales, work: work, transport: tr}, nil
}

func (b *serveMixed) close() {
	b.transport.CloseIdleConnections()
	runcache.SetDir("")
	os.RemoveAll(b.work)
}

// liveServer is a serve.Server mounted on a loopback http.Server.
type liveServer struct {
	srv  *serve.Server
	hs   *http.Server
	done chan error
	url  string
}

func (b *serveMixed) start() (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{Workers: 1, Scales: b.scales})
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	return &liveServer{srv: srv, hs: hs, done: done, url: "http://" + ln.Addr().String()}, nil
}

// stop drains the service, closes the listener and waits for Serve to
// return.
func (l *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := l.srv.Shutdown(ctx)
	if herr := l.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-l.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// figureCall is one /run round trip.
type figureCall struct {
	op
	resp *serve.Response
}

// phaseResult is what one pass over both streams returned.
type phaseResult struct {
	figures     []figureCall
	batches     []op
	evalTime    time.Duration
	searchWall  time.Duration
	search      dse.SearchResult
	searchErr   error
	frontier    []byte
	warmBatches int64
	retries     int64
}

// timedEvaluator wraps the searcher's evaluator, timing every batch; the
// search's own time is its wall time minus these.
type timedEvaluator struct {
	inner   dse.Evaluator
	sc      scope
	batches []op
	total   time.Duration
}

func (e *timedEvaluator) EvaluateBatch(ctx context.Context, cfg dse.EvalConfig, sets [][]int) ([]dse.Candidate, error) {
	var out []dse.Candidate
	var err error
	d := e.sc.call("serve", "serve.RemoteEvaluator.EvaluateBatch", func() { out, err = e.inner.EvaluateBatch(ctx, cfg, sets) })
	e.total += d
	e.batches = append(e.batches, op{key: fmt.Sprintf("dse/batch%d", len(e.batches)), dur: d, fp: candidatesFP(out), err: err})
	return out, err
}

func candidatesFP(cs []dse.Candidate) string {
	h := fnv.New64a()
	for _, c := range cs {
		fmt.Fprintf(h, "%v|%x|%x|%x|%x|%t;", c.Big, c.AvgLatency, c.LatencyNS, c.PowerW, c.AreaMM2, c.Saturated)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// phase runs both tenants' streams against url concurrently and waits for
// both.
func (b *serveMixed) phase(ctx context.Context, sc scope, name, url, dir string) phaseResult {
	httpc := &http.Client{Transport: b.transport}
	var res phaseResult
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		sp := sc.fork("bench", name+" figure requester")
		defer sp.end()
		c := &serve.Client{BaseURL: url, HTTP: httpc, Seed: 1}
		for _, req := range b.in.Stream {
			var resp *serve.Response
			var err error
			key := "run/" + req.Experiment + "/" + req.Scale
			d := sp.call("serve", "serve.Client.Run "+key, func() {
				resp, err = c.Run(ctx, serve.Request{Experiment: req.Experiment, Scale: req.Scale, Tenant: "figures"})
			})
			fc := figureCall{op: op{key: key, dur: d, err: err}, resp: resp}
			if resp != nil {
				fc.fp = resp.Fingerprint
			}
			res.figures = append(res.figures, fc)
		}
		res.retries += c.Retries.Load()
	}()
	var searchRetries int64
	go func() {
		defer wg.Done()
		sp := sc.fork("bench", name+" DSE searcher")
		defer sp.end()
		remote := &serve.RemoteEvaluator{Client: &serve.Client{BaseURL: url, HTTP: httpc, Seed: 2}, Tenant: "dse"}
		s := b.in.Search
		path := filepath.Join(dir, name+".hndse")
		ss := sp.child("dse", "dse.Search")
		te := &timedEvaluator{inner: remote, sc: ss}
		t0 := time.Now()
		res.search, res.searchErr = dse.SearchCtx(ctx, dse.SearchConfig{
			Eval: dse.EvalConfig{
				W: s.W, H: s.H, LinkRedist: true,
				InjectionRate: s.Rate, Packets: s.Packets, Seed: s.ProbeSeed,
			},
			MinBig: s.MinBig, MaxBig: s.MaxBig, PopSize: s.Pop, Generations: s.Generations,
			Seed: s.RNGSeed, FrontierPath: path, Evaluator: te,
		})
		res.searchWall = time.Since(t0)
		ss.end()
		res.batches, res.evalTime = te.batches, te.total
		res.warmBatches = remote.WarmBatches.Load()
		searchRetries = remote.Client.Retries.Load()
		if res.searchErr == nil {
			res.frontier, res.searchErr = os.ReadFile(path)
		}
	}()
	wg.Wait()
	res.retries += searchRetries
	return res
}

func (b *serveMixed) round(sc scope) (*roundResult, error) {
	rr := newRound()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	t0 := time.Now()
	setup := sc.child("bench", "setup")
	dir, err := os.MkdirTemp(b.work, "round-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cacheDir := filepath.Join(dir, "cache")
	setup.call("runcache", "runcache.SetDir", func() {
		runcache.Reset()
		runcache.ResetDiskStats()
		err = runcache.SetDir(cacheDir)
	})
	if err != nil {
		return nil, err
	}
	var srv *liveServer
	setup.call("serve", "serve.New", func() { srv, err = b.start() })
	if err != nil {
		return nil, err
	}
	setup.end()
	rr.setup = time.Since(t0)

	t1 := time.Now()
	timed := sc.child("bench", "timed")
	cold := b.phase(ctx, timed, "cold", srv.url, dir)
	hitsA, missesA := runcache.Stats()
	execsA := runcache.Execs()
	var stopErr error
	restart := timed.child("bench", "restart")
	restart.call("serve", "serve.Server.Shutdown", func() { stopErr = srv.stop() })
	restart.call("runcache", "runcache.Reset", runcache.Reset)
	restart.call("serve", "serve.New", func() { srv, err = b.start() })
	restart.end()
	if err != nil {
		timed.end()
		return nil, err
	}
	diskHitsA, _, _ := runcache.DiskStats()
	warm := b.phase(ctx, timed, "restart", srv.url, dir)
	timed.end()
	rr.wall = time.Since(t1)
	if err := srv.stop(); err != nil && stopErr == nil {
		stopErr = err
	}
	if stopErr != nil {
		rr.fail("server shutdown: %v", stopErr)
	}
	hitsB, missesB := runcache.Stats()
	execsB := runcache.Execs()
	diskBytes := dirBytes(cacheDir) // the replay stores nothing new
	diskHits, diskMisses, _ := runcache.DiskStats()

	// Correctness: the restart replay must answer from disk with the cold
	// pass's exact results (check compares every op to its first run).
	var queue, exec, disk, transport time.Duration
	var fromCache, responses, cycles float64
	for pi, p := range []phaseResult{cold, warm} {
		for _, fc := range p.figures {
			rr.ops = append(rr.ops, fc.op)
			if fc.resp == nil {
				continue
			}
			responses++
			if fc.resp.FromCache {
				fromCache++
			} else if pi == 1 {
				rr.fail("%s: not answered from cache after the restart", fc.key)
			}
			cycles += float64(fc.resp.Cache.Cycles)
			ms := func(k string) time.Duration { return time.Duration(fc.resp.Timing[k] * float64(time.Millisecond)) }
			queue += ms("queue")
			exec += ms("run.execute")
			if pi == 1 {
				disk += ms("run.cache.disk")
			}
			transport += fc.dur - ms("total")
		}
		rr.ops = append(rr.ops, p.batches...)
		responses += float64(len(p.batches))
		fromCache += float64(p.warmBatches)
		fp := ""
		if p.searchErr == nil {
			fp = candidatesFP(p.search.Front)
		}
		rr.verify("dse/front", fp, p.searchErr)
	}
	if !bytes.Equal(cold.frontier, warm.frontier) {
		rr.fail("DSE frontier files differ between the cold pass and the restart replay")
	}
	if execsB != 0 {
		rr.fail("restart replay executed %d recipes, want 0 (all answers from disk)", execsB)
	}
	if diskHits-diskHitsA <= 0 {
		rr.fail("restart replay had no disk hits")
	}
	if hitsA == 0 || execsA >= hitsA+missesA {
		rr.fail("cold pass executed %d recipes for %d lookups (%d hits); repeats must hit the cache", execsA, hitsA+missesA, hitsA)
	}

	rr.routerCycles = cycles * 64 // fig1 runs on the 8x8 mesh
	rr.layer["runcache.hit_ratio"] = ratio(float64(hitsA+hitsB), float64(hitsA+hitsB+missesA+missesB))
	rr.layer["runcache.execs"] = float64(execsA + execsB)
	rr.layer["runcache.disk_hits"] = float64(diskHits)
	rr.layer["runcache.disk_misses"] = float64(diskMisses)
	rr.layer["runcache.disk_bytes"] = float64(diskBytes)
	rr.layer["serve.queue_ms"] = millis(queue)
	rr.layer["serve.execute_ms"] = millis(exec)
	rr.layer["serve.cache_disk_ms"] = millis(disk)
	rr.layer["serve.transport_ms"] = millis(transport)
	rr.layer["serve.from_cache_ratio"] = ratio(fromCache, responses)
	rr.layer["serve.retries"] = float64(cold.retries + warm.retries)
	searchWall := cold.searchWall + warm.searchWall
	evalTime := cold.evalTime + warm.evalTime
	batches := len(cold.batches) + len(warm.batches)
	rr.layer["dse.search_self_ms"] = millis(searchWall - evalTime)
	rr.layer["dse.eval_batch_ms"] = ratio(millis(evalTime), float64(batches))
	rr.layer["dse.archive_hit_ratio"] = ratio(float64(cold.search.ArchiveHits), float64(cold.search.ArchiveHits+cold.search.Evals))
	rr.layer["dse.evals"] = float64(cold.search.Evals)
	rr.layer["dse.frontier_bytes"] = float64(len(cold.frontier))
	// The initial population counts as generation 0.
	rr.layer["dse_gen_s"] = ratio(searchWall.Seconds(), float64(2*(b.in.Search.Generations+1)))
	return rr, nil
}

// dirBytes sums the sizes of the regular files directly under dir.
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}
