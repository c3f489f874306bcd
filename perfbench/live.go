package main

import (
	"fmt"
	stdnet "net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/check"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/stack"
	"repro/internal/types"
)

const (
	liveN = 5
	// liveRate is the open-loop submission rate per wall second, about
	// half the 2–4k/s knee of five engines sharing two cores.
	liveRate = 1000
	// liveTick and liveDeltaMS are pgcsd's -tick default and the δ the
	// repository's live configurations use on loopback.
	liveTick    = 2 * time.Millisecond
	liveDeltaMS = 5
	// liveSetupReps is how many clusters a live pass boots; setup_s is the
	// median and the last cluster is measured.
	liveSetupReps = 5
	liveDrain     = 10 * time.Second
)

// liveClients are the nodes the two client connections submit at.
var liveClients = [2]types.ProcID{0, 2}

// liveOnly are the per-layer metrics only the live workload exercises.
var liveOnly = []string{
	"live.submit_to_release_p50_ms", "live.submit_to_release_p99_ms",
	"live.release_to_client_p50_ms", "live.release_to_client_p99_ms",
	"loadgen.late_p99_ms", "loadgen.backlog_end",
}

// liveCluster is one in-process deployment: five engines over loopback
// TCP, each with its WAL and trace files, and two client connections.
type liveCluster struct {
	dir     string
	engines []*live.Engine
	// origin is the wall instant each engine's clock started, taken as
	// StartEngine returns (the engine stamps it just before returning).
	origin  []time.Time
	clients [2]*live.Client
	conns   [2]*liveConn
}

// liveConn is the receiving side of one client connection: when each of
// its own submissions came back as a delivery line.
type liveConn struct {
	node types.ProcID
	mu   sync.Mutex
	recv map[string]time.Time
	dups []string
	got  atomic.Int64
	done chan struct{}
}

func (lc *liveConn) read(c *live.Client) {
	defer close(lc.done)
	for d := range c.Deliveries() {
		if d.From != lc.node {
			continue
		}
		now := time.Now()
		lc.mu.Lock()
		if _, seen := lc.recv[d.Value]; seen {
			lc.dups = append(lc.dups, d.Value)
		} else {
			lc.recv[d.Value] = now
			lc.got.Add(1)
		}
		lc.mu.Unlock()
	}
}

// rejected collects the values the node bounced with BUSY so far.
func rejected(c *live.Client) []string {
	var out []string
	for {
		select {
		case v := <-c.Rejects():
			out = append(out, v)
		default:
			return out
		}
	}
}

func freeAddrs(n int) ([]string, error) {
	lns := make([]stdnet.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// startLive boots a cluster with pgcsd's flag defaults and returns once a
// probe submitted through the first client is delivered at every engine.
func startLive(dir string, seed int64, probe string) (*liveCluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrs, err := freeAddrs(2 * liveN)
	if err != nil {
		return nil, err
	}
	cfg := &live.Config{DeltaMS: liveDeltaMS, Seed: seed}
	for i := 0; i < liveN; i++ {
		cfg.Nodes = append(cfg.Nodes, live.NodeConfig{ID: i, Addr: addrs[2*i], ClientAddr: addrs[2*i+1]})
	}
	lc := &liveCluster{dir: dir}
	for i := 0; i < liveN; i++ {
		e, err := live.StartEngine(live.EngineOptions{
			Config:          cfg,
			Self:            types.ProcID(i),
			WALPath:         filepath.Join(dir, fmt.Sprintf("node%d.wal", i)),
			TracePath:       filepath.Join(dir, fmt.Sprintf("node%d.r0.jsonl", i)),
			MaxPending:      maxPending,
			CommitWindow:    0,
			DeliverPipeline: 64,
			Tick:            liveTick,
		})
		if err != nil {
			lc.close()
			return nil, fmt.Errorf("start engine %d: %w", i, err)
		}
		lc.engines = append(lc.engines, e)
		lc.origin = append(lc.origin, time.Now())
	}
	for k, p := range liveClients {
		c, err := live.DialClient(cfg.Nodes[p].ClientAddr, 10*time.Second)
		if err != nil {
			lc.close()
			return nil, err
		}
		lc.clients[k] = c
		lc.conns[k] = &liveConn{node: p, recv: map[string]time.Time{}, done: make(chan struct{})}
		go lc.conns[k].read(c)
	}
	if err := lc.clients[0].Submit(probe); err != nil {
		lc.close()
		return nil, err
	}
	deadline := time.Now().Add(liveDrain)
	for !lc.allDelivered(1) {
		if time.Now().After(deadline) {
			lc.close()
			return nil, fmt.Errorf("probe not delivered at every engine within %v", liveDrain)
		}
		time.Sleep(time.Millisecond)
	}
	return lc, nil
}

// allDelivered reports whether every engine has delivered at least n values.
func (lc *liveCluster) allDelivered(n int) bool {
	for _, e := range lc.engines {
		if len(e.Deliveries()) < n {
			return false
		}
	}
	return true
}

func (lc *liveCluster) deliveries() int {
	n := 0
	for _, e := range lc.engines {
		n += len(e.Deliveries())
	}
	return n
}

// close shuts the clients and then every engine down, all engines at
// once, and removes the cluster's files.
func (lc *liveCluster) close() {
	for k, c := range lc.clients {
		if c != nil {
			c.Close()
			<-lc.conns[k].done
		}
	}
	var wg sync.WaitGroup
	for _, e := range lc.engines {
		wg.Add(1)
		go func(e *live.Engine) {
			defer wg.Done()
			e.Close()
		}(e)
	}
	wg.Wait()
	os.RemoveAll(lc.dir)
}

// liveSample is one submission on the live workload.
type liveSample struct {
	value string
	conn  int
	due   time.Time
	sent  time.Time
}

// liveSnapshot merges the engines' registries: counters summed, gauges
// at their maximum, histogram medians at the median engine's and tails at
// the worst engine's, over the engines that recorded samples.
func liveSnapshot(lc *liveCluster) *obs.Snapshot {
	out := &obs.Snapshot{Counters: map[string]int64{}, Gauges: map[string]int64{}, Histograms: map[string]obs.HistogramSummary{}}
	hists := map[string][]obs.HistogramSummary{}
	for _, e := range lc.engines {
		s := e.Metrics()
		for k, v := range s.Counters {
			out.Counters[k] += v
		}
		for k, v := range s.Gauges {
			if v > out.Gauges[k] {
				out.Gauges[k] = v
			}
		}
		for k, h := range s.Histograms {
			if h.Count > 0 {
				hists[k] = append(hists[k], h)
			}
		}
	}
	for k, hs := range hists {
		var p50s []float64
		var m obs.HistogramSummary
		var sum float64
		for _, h := range hs {
			p50s = append(p50s, float64(h.P50NS))
			m.Count += h.Count
			sum += float64(h.MeanNS) * float64(h.Count)
			if h.P99NS > m.P99NS {
				m.P99NS = h.P99NS
			}
			if h.MaxNS > m.MaxNS {
				m.MaxNS = h.MaxNS
			}
		}
		m.P50NS = int64(median(p50s))
		m.MeanNS = int64(ratio(sum, float64(m.Count)))
		out.Histograms[k] = m
	}
	return out
}

func runLiveSteady(cfg runConfig) (*result, error) {
	res := newResult()
	root, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("live-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	var lc *liveCluster
	setups := make([]float64, liveSetupReps)
	for i := range setups {
		if lc != nil {
			lc.close()
		}
		t0 := time.Now()
		lc, err = startLive(filepath.Join(root, strconv.Itoa(i)), cfg.seed+int64(i), "probe")
		if err != nil {
			return nil, fmt.Errorf("live-steady setup: %w", err)
		}
		setups[i] = time.Since(t0).Seconds()
	}
	res.metrics["setup_s"] = median(setups)

	// Open loop: one submission per 1/liveRate, alternating connections.
	n := cfg.seconds * liveRate
	samples := make([]liveSample, n)
	var snap0 *obs.Snapshot
	if cfg.tr != nil {
		snap0 = liveSnapshot(lc)
		cfg.tr.markProfiles()
	}
	d0 := lc.deliveries()
	phase := startPhase()
	start := time.Now()
	var sendErr error
	for i := range samples {
		s := &samples[i]
		s.value = fmt.Sprintf("s%d-%d", cfg.seed, i)
		s.conn = i % 2
		s.due = start.Add(time.Duration(i) * time.Second / liveRate)
		if d := time.Until(s.due); d > 0 {
			time.Sleep(d)
		}
		s.sent = time.Now()
		if err := lc.clients[s.conn].Submit(s.value); err != nil && sendErr == nil {
			sendErr = err
		}
	}
	phase.stop()
	backlog := int64(n)
	for _, c := range lc.conns {
		backlog -= c.got.Load()
	}
	delivered := lc.deliveries() - d0
	if cfg.tr != nil {
		cfg.tr.captureProfiles(delivered)
		layerObs(res, obsDelta{now: liveSnapshot(lc), then: snap0}, delivered)
	}
	phase.throughput(res, delivered)

	// Drain: every submission back on its own connection and every engine
	// holding the whole order, or the drain deadline.
	deadline := time.Now().Add(liveDrain)
	for time.Now().Before(deadline) {
		got := int64(0)
		for _, c := range lc.conns {
			got += c.got.Load()
		}
		if got >= int64(n) && lc.allDelivered(n+1) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	engineDs := make([][]stack.Delivery, liveN)
	for i, e := range lc.engines {
		engineDs[i] = e.Deliveries()
	}
	recv := make([]map[string]time.Time, 2)
	var dups, busy []string
	for k, c := range lc.conns {
		c.mu.Lock()
		recv[k] = make(map[string]time.Time, len(c.recv))
		for v, t := range c.recv {
			recv[k][v] = t
		}
		dups = append(dups, c.dups...)
		c.mu.Unlock()
		busy = append(busy, rejected(lc.clients[k])...)
	}
	out := analyseLive(samples, recv, dups, busy, engineDs, lc.origin, cfg.tr)
	if out.err == nil && sendErr != nil {
		out.err = fmt.Errorf("submit: %w", sendErr)
	}
	res.attempted, res.failed, res.checkErr = n, out.failed, out.err
	res.metrics["deliver_p50_ms"] = quantile(out.lat, 0.50)
	res.metrics["deliver_p99_ms"] = quantile(out.lat, 0.99)
	res.info["samples"] = len(out.lat)
	if cfg.tr != nil {
		res.metrics["live.submit_to_release_p50_ms"] = quantile(out.s2r, 0.50)
		res.metrics["live.submit_to_release_p99_ms"] = quantile(out.s2r, 0.99)
		res.metrics["live.release_to_client_p50_ms"] = quantile(out.r2c, 0.50)
		res.metrics["live.release_to_client_p99_ms"] = quantile(out.r2c, 0.99)
		var late []float64
		for i := range samples {
			late = append(late, ms(samples[i].sent.Sub(samples[i].due)))
		}
		res.metrics["loadgen.late_p99_ms"] = quantile(late, 0.99)
		res.metrics["loadgen.backlog_end"] = float64(backlog)
		zero(res, "sim.events_per_delivery", "net.sent_per_delivery", "net.dropped",
			"stack.bcast_call_p99_us", "stack.history_slowdown", "outage_p50_ms", "rejoin_p50_ms")
	}
	res.info["backlog_end"] = backlog

	// Teardown after every metric is taken: a crash while closing fails
	// the run rather than going unseen.
	lc.close()
	return res, nil
}

// liveOutcome is the checked analysis of one live pass.
type liveOutcome struct {
	lat, s2r, r2c []float64
	failed        int
	err           error
}

// analyseLive checks a live pass and splits each delivered sample's
// latency into engine time (due → release at the submitting engine, on
// the engine clock mapped to wall time through its start instant) and
// client time (release → receipt of the D line).
//
// Checks: every value is delivered at most once on its own connection;
// all engines' delivery sequences are prefixes of one total order, as
// check.TOChecker decides; and each sample's two stages are non-negative
// up to one pacer tick (the error of the mapped start instant). The stages
// add up to the latency by construction, so only their signs are checked.
func analyseLive(samples []liveSample, recv []map[string]time.Time, dups, busy []string,
	engineDs [][]stack.Delivery, origin []time.Time, tr *tracer) liveOutcome {
	var out liveOutcome
	fail := func(err error) {
		if out.err == nil {
			out.err = err
		}
	}
	if len(dups) > 0 {
		fail(fmt.Errorf("value %q delivered twice on its connection", dups[0]))
	}
	refused := map[string]bool{}
	for _, v := range busy {
		refused[v] = true
	}

	// One total order: bcasts in per-connection submission order (each
	// cluster's probe first at node 0), then every engine's deliveries.
	tck := check.NewTOChecker()
	for _, d := range engineDs[liveClients[0]] {
		if d.From == liveClients[0] && d.Value == "probe" {
			tck.Bcast("probe", liveClients[0])
			break
		}
	}
	for _, s := range samples {
		if !refused[s.value] {
			tck.Bcast(types.Value(s.value), liveClients[s.conn])
		}
	}
	released := make([]map[string]time.Duration, len(engineDs))
	for q, ds := range engineDs {
		released[q] = make(map[string]time.Duration, len(ds))
		for _, d := range ds {
			if err := tck.Brcv(d.Value, d.From, types.ProcID(q)); err != nil {
				fail(fmt.Errorf("TO check at engine %d: %w", q, err))
				break
			}
			released[q][string(d.Value)] = time.Duration(d.Time)
		}
	}

	tol := float64(liveTick) / float64(time.Millisecond)
	for i, s := range samples {
		node := int(liveClients[s.conn])
		got, ok := recv[s.conn][s.value]
		rel, relOK := released[node][s.value]
		if !ok || !relOK || refused[s.value] {
			out.failed++
			continue
		}
		relWall := origin[node].Add(rel)
		lat := ms(got.Sub(s.due))
		s2r := ms(relWall.Sub(s.due))
		r2c := ms(got.Sub(relWall))
		if s2r < -tol || r2c < -tol {
			fail(fmt.Errorf("sample %s: stage %.3f or %.3f ms is negative beyond one tick", s.value, s2r, r2c))
		}
		out.lat = append(out.lat, lat)
		out.s2r = append(out.s2r, s2r)
		out.r2c = append(out.r2c, r2c)
		if tr != nil {
			tr.span(i, node, s.due.UnixNano(), got.UnixNano(), int64(s.due.Sub(origin[node])), int64(rel))
			for q := range engineDs {
				if r, ok := released[q][s.value]; ok {
					tr.event(i, q, origin[q].Add(r).UnixNano(), int64(r))
				}
			}
		}
	}
	return out
}
