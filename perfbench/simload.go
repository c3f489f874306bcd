package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/types"
)

const (
	simN = 5
	// simRate is the open-loop submission rate in operations per virtual
	// second, spread round-robin across the nodes.
	simRate = 1000
	// maxPending is pgcsd's -max-pending default.
	maxPending = 4096
	// A simulated setup takes well under a millisecond, too short for one
	// timer reading to be steady. Each pass runs one warm-up block and then
	// times setupBlocks blocks of setupsPerBlock set-ups, each block after a
	// collection; setup_s is the median over blocks of the block's wall time
	// per set-up.
	setupBlocks    = 7
	setupsPerBlock = 20
	// drainLimit bounds the virtual time a pass waits, after the last
	// submission, for outstanding operations to complete.
	drainLimit = 5 * time.Second
)

// simOptions is the configuration pgcsd ships, on the simulator: group
// commit with no added window, a 64-deep delivery pipeline, eager token
// rounds and the daemon's backpressure bound, with δ = 1ms, network jitter
// and λ = 1ms stable storage.
func simOptions(seed int64, reg *obs.Registry) stack.Options {
	return stack.Options{
		Seed:             seed,
		N:                simN,
		Delta:            time.Millisecond,
		Jitter:           true,
		StorageLatency:   time.Millisecond,
		GroupCommit:      true,
		CommitWindow:     0,
		DeliverPipeline:  64,
		EagerTokenRounds: true,
		MaxPendingBcasts: maxPending,
		Obs:              reg,
	}
}

// simOp is one client submission on a simulated workload.
type simOp struct {
	node      types.ProcID
	vsub      sim.Time      // virtual submit instant
	wsub      time.Duration // wall submit instant, since the pass began
	vdone     sim.Time      // virtual completion instant at the submitter
	wdone     time.Duration
	done      bool
	measured  bool   // submitted in the measured phase (not the setup probe)
	kind, key string // the rsm operation, on sim-kv
}

// simLoad drives one simulated cluster open loop and records each
// operation's fate. The workload supplies identify, which maps a delivered
// value back to its operation index.
type simLoad struct {
	c        *stack.Cluster
	ops      []simOp
	base     time.Time
	rng      *rand.Rand
	tr       *tracer
	identify func(d stack.Delivery) (int, error)
	// firstErr is the first inconsistency the delivery observer saw.
	firstErr error
	// bcastWall holds the wall time of each submission call when traced.
	bcastWall []float64
	refused   int
	next      types.ProcID
	// onDeliver lets a workload watch every delivery as it happens.
	onDeliver func(p types.ProcID, d stack.Delivery, idx int)
}

func newSimLoad(c *stack.Cluster, seed int64, tr *tracer, identify func(stack.Delivery) (int, error)) *simLoad {
	l := &simLoad{c: c, base: time.Now(), rng: rand.New(rand.NewSource(seed)), tr: tr, identify: identify}
	c.OnDeliver(l.observe)
	return l
}

func (l *simLoad) wallNow() time.Duration { return time.Since(l.base) }

// observe closes an operation when its submitter delivers it, and, when
// traced, records one span event per node delivery.
func (l *simLoad) observe(p types.ProcID, d stack.Delivery) {
	idx, err := l.identify(d)
	if err != nil || idx < 0 || idx >= len(l.ops) {
		if l.firstErr == nil {
			l.firstErr = fmt.Errorf("delivery of unknown value %q at %v: %v", string(d.Value), p, err)
		}
		return
	}
	op := &l.ops[idx]
	now := l.wallNow()
	if l.tr != nil {
		l.tr.event(idx, int(p), int64(now), int64(d.Time))
	}
	if l.onDeliver != nil {
		l.onDeliver(p, d, idx)
	}
	if d.From != op.node {
		if l.firstErr == nil {
			l.firstErr = fmt.Errorf("op %d submitted at %v delivered as from %v", idx, op.node, d.From)
		}
		return
	}
	if p != op.node {
		return
	}
	if op.done {
		if l.firstErr == nil {
			l.firstErr = fmt.Errorf("op %d delivered twice at its submitter %v", idx, p)
		}
		return
	}
	op.done, op.vdone, op.wdone = true, d.Time, now
}

// add records a new operation at node p and returns its index.
func (l *simLoad) add(p types.ProcID, measured bool) int {
	l.ops = append(l.ops, simOp{node: p, vsub: l.c.Sim.Now(), wsub: l.wallNow(), measured: measured})
	return len(l.ops) - 1
}

// timed runs one submission call, timing it when traced.
func (l *simLoad) timed(fn func()) {
	if l.tr == nil {
		fn()
		return
	}
	t0 := time.Now()
	fn()
	l.bcastWall = append(l.bcastWall, float64(time.Since(t0))/float64(time.Microsecond))
}

// nextNode picks the next round-robin node that up(p) accepts.
func (l *simLoad) nextNode(up func(types.ProcID) bool) (types.ProcID, bool) {
	for i := 0; i < simN; i++ {
		p := l.next
		l.next = (l.next + 1) % simN
		if up(p) {
			return p, true
		}
	}
	return 0, false
}

// openLoop submits with exponentially distributed gaps at simRate per
// virtual second (independent clients: a Poisson open loop) from the
// current instant until end; fire submits one operation.
func (l *simLoad) openLoop(end sim.Time, fire func()) {
	var tick func()
	at := l.c.Sim.Now()
	tick = func() {
		fire()
		at = at.Add(time.Duration(l.rng.ExpFloat64() * float64(time.Second) / simRate))
		if at < end {
			l.c.Sim.At(at, tick)
		}
	}
	at = at.Add(time.Duration(l.rng.ExpFloat64() * float64(time.Second) / simRate))
	l.c.Sim.At(at, tick)
}

// full reports whether p is at the backpressure bound, where TryBcast
// refuses.
func (l *simLoad) full(p types.ProcID) bool {
	return l.c.Node(p).PendingBcasts() >= maxPending
}

// runUntil advances the simulation to t.
func (l *simLoad) runUntil(t sim.Time) error {
	if err := l.c.Sim.Run(t); err != nil {
		return fmt.Errorf("simulation: %w", err)
	}
	return nil
}

// awaitDelivered runs the simulation until every node has delivered at least
// want values, failing after limit of virtual time.
func awaitDelivered(c *stack.Cluster, want int, limit time.Duration) error {
	deadline := c.Sim.Now().Add(limit)
	for c.Sim.Now() < deadline {
		all := true
		for _, p := range c.Procs.Members() {
			if c.Node(p).DeliveredCount() < want {
				all = false
				break
			}
		}
		if all {
			return nil
		}
		if err := c.Sim.Run(c.Sim.Now().Add(time.Millisecond)); err != nil {
			return fmt.Errorf("simulation: %w", err)
		}
	}
	return fmt.Errorf("probe not delivered at every node within %v", limit)
}

// slices runs the measured phase from the current instant for span of
// virtual time in four equal slices, returning the wall time and the
// deliveries summed over nodes of each slice.
func (l *simLoad) slices(span time.Duration) (wall [4]time.Duration, deliveries [4]int, err error) {
	start := l.c.Sim.Now()
	prev := l.c.TotalDeliveries()
	for i := 0; i < 4; i++ {
		t0 := time.Now()
		if err = l.runUntil(start.Add(span * time.Duration(i+1) / 4)); err != nil {
			return
		}
		wall[i] = time.Since(t0)
		cur := l.c.TotalDeliveries()
		deliveries[i] = cur - prev
		prev = cur
	}
	return
}

// drain runs the simulation until every measured operation completed or
// drainLimit of virtual time passed, in steps of 10ms.
func (l *simLoad) drain() error {
	deadline := l.c.Sim.Now().Add(drainLimit)
	for l.c.Sim.Now() < deadline {
		if l.outstanding() == 0 {
			return nil
		}
		if err := l.runUntil(l.c.Sim.Now().Add(10 * time.Millisecond)); err != nil {
			return err
		}
	}
	return nil
}

func (l *simLoad) outstanding() int {
	n := 0
	for i := range l.ops {
		if !l.ops[i].done {
			n++
		}
	}
	return n
}

// latencies fills the submit-to-completion metrics over the measured
// operations, in virtual time, and counts the ones that never completed.
func (l *simLoad) latencies(res *result) {
	var lat []float64
	for i := range l.ops {
		op := &l.ops[i]
		if !op.measured {
			continue
		}
		res.attempted++
		if !op.done {
			res.failed++
			continue
		}
		lat = append(lat, ms(op.vdone.Sub(op.vsub)))
	}
	res.attempted += l.refused
	res.failed += l.refused
	res.metrics["deliver_p50_ms"] = quantile(lat, 0.50)
	res.metrics["deliver_p99_ms"] = quantile(lat, 0.99)
	res.info["samples"] = len(lat)
	if l.tr != nil {
		res.metrics["stack.bcast_call_p99_us"] = quantile(l.bcastWall, 0.99)
		for i := range l.ops {
			op := &l.ops[i]
			if op.done {
				l.tr.span(i, int(op.node), int64(op.wsub), int64(op.wdone), int64(op.vsub), int64(op.vdone))
			}
		}
	}
}

// layerSim fills the per-layer metrics of a simulated pass from the obs
// registry, the simulator's step count and the network's counters, and
// zeroes the live-only ones.
func layerSim(res *result, c *stack.Cluster, snap0 *obs.Snapshot, steps0 uint64, net0 net.Stats, delivered int) {
	layerObs(res, obsDelta{now: c.Obs.Snapshot(), then: snap0}, delivered)
	d := float64(delivered)
	res.metrics["sim.events_per_delivery"] = ratio(float64(c.Sim.Steps()-steps0), d)
	ns := c.Net.Stats().Sub(net0)
	res.metrics["net.sent_per_delivery"] = ratio(float64(ns.Sent), d)
	res.metrics["net.dropped"] = float64(ns.DroppedChannel + ns.DroppedProc + ns.DroppedUgly)
	zero(res, liveOnly...)
}

// zero reports metrics of layers a workload does not exercise as 0.
func zero(res *result, names ...string) {
	for _, n := range names {
		res.metrics[n] = 0
	}
}

// runSim sets a simulated workload up setupBlocks × setupsPerBlock times
// (setup_s is the median block's time per set-up, and the last system is
// measured), arms its load over span of
// virtual time, measures that span, drains, and fills every metric but the
// workload's own. setup returns the system's load generator and the function
// that arms its load until a given instant.
func runSim(cfg runConfig, span time.Duration, setup func(*obs.Registry) (*simLoad, func(end sim.Time), error)) (*result, error) {
	res := newResult()
	var l *simLoad
	var start func(sim.Time)
	blocks := make([]float64, 1+setupBlocks)
	for b := range blocks {
		runtime.GC()
		t0 := time.Now()
		for i := 0; i < setupsPerBlock; i++ {
			var reg *obs.Registry
			if cfg.tr != nil {
				reg = obs.New()
				cfg.tr.reset()
			}
			var err error
			if l, start, err = setup(reg); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
		}
		blocks[b] = time.Since(t0).Seconds() / setupsPerBlock
	}
	res.metrics["setup_s"] = median(blocks[1:])
	c := l.c
	start(c.Sim.Now().Add(span))

	var snap0 *obs.Snapshot
	if cfg.tr != nil {
		snap0 = c.Obs.Snapshot()
		cfg.tr.markProfiles()
	}
	steps0, net0 := c.Sim.Steps(), c.Net.Stats()
	d0 := c.TotalDeliveries()
	phase := startPhase()
	wall, per, err := l.slices(span)
	if err != nil {
		return nil, err
	}
	phase.stop()
	delivered := c.TotalDeliveries() - d0
	if cfg.tr != nil {
		cfg.tr.captureProfiles(delivered)
		layerSim(res, c, snap0, steps0, net0, delivered)
	}
	phase.throughput(res, delivered)
	slowdown := ratio(float64(wall[3])/float64(per[3]), float64(wall[0])/float64(per[0]))
	res.metrics["stack.history_slowdown"] = slowdown
	res.info["history_slowdown"] = slowdown

	if err := l.drain(); err != nil {
		return nil, err
	}
	l.latencies(res)
	return res, nil
}
