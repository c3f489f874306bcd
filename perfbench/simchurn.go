package main

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/check"
	"repro/internal/failures"
	"repro/internal/obs"
	"repro/internal/props"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/types"
)

const (
	// churnVirtualPerWall sizes sim-churn: virtual seconds simulated per
	// wall second asked for. Each view change exchanges state whose size
	// grows with the history, so a churn run's cost grows faster than its
	// length.
	churnVirtualPerWall = 0.7
	churnCrashFor       = 200 * time.Millisecond
	churnPartitionFor   = 300 * time.Millisecond
	// churnCheckpoint is the CI matrix's WAL checkpoint threshold.
	churnCheckpoint = 64 << 10
	// churnQuiet is how long before a crash its victim must have taken no
	// submission: an accepted value whose λ = 1ms WAL write is still in
	// flight is lost with the node's volatile state by design, and would
	// count as a failed operation.
	churnQuiet = 3 * time.Millisecond
)

// churnFault is one injected fault and what it cost.
type churnFault struct {
	at, heal sim.Time
	majority types.ProcSet
	rejoined []types.ProcID
	// outage is the virtual time from the fault to the first delivery, at
	// a majority member, of a value submitted after the fault (-1 until
	// seen); rejoin holds the same from the heal for each rejoined node.
	outage time.Duration
	rejoin map[types.ProcID]time.Duration
}

// churnRun is one sim-churn system: a simulated cluster taking plain TO
// broadcasts while nodes crash with amnesia and the network partitions.
type churnRun struct {
	load    *simLoad
	faults  []*churnFault
	lastSub [simN]sim.Time
	// crashes and partitions count the faults of each kind so far; the
	// fault pattern is fixed, and the seed varies arrivals and the network.
	crashes, partitions int
}

func newChurnRun(cfg runConfig, reg *obs.Registry) (*churnRun, error) {
	opts := simOptions(cfg.seed, reg)
	opts.CheckpointBytes = churnCheckpoint
	c := stack.NewCluster(opts)
	cr := &churnRun{}
	cr.load = newSimLoad(c, cfg.seed, cfg.tr, cr.identify)
	cr.load.onDeliver = cr.observeFaults
	idx := cr.load.add(0, false)
	if !c.Node(0).TryBcast(churnValue(idx)) {
		return nil, fmt.Errorf("probe refused")
	}
	if err := awaitDelivered(c, 1, drainLimit); err != nil {
		return nil, err
	}
	return cr, nil
}

func churnValue(idx int) types.Value { return types.Value("c" + strconv.Itoa(idx)) }

func (cr *churnRun) identify(d stack.Delivery) (int, error) {
	if len(d.Value) < 2 || d.Value[0] != 'c' {
		return -1, fmt.Errorf("malformed value")
	}
	return strconv.Atoi(string(d.Value[1:]))
}

// observeFaults resolves the outage and rejoin times of open faults.
func (cr *churnRun) observeFaults(p types.ProcID, d stack.Delivery, idx int) {
	vsub := cr.load.ops[idx].vsub
	for i := len(cr.faults) - 1; i >= 0; i-- {
		f := cr.faults[i]
		if f.outage < 0 && vsub > f.at && f.majority.Contains(p) {
			f.outage = d.Time.Sub(f.at)
		}
		if d.Time < f.heal || vsub <= f.heal {
			continue
		}
		for _, r := range f.rejoined {
			if _, seen := f.rejoin[r]; r == p && !seen {
				f.rejoin[r] = d.Time.Sub(f.heal)
			}
		}
	}
}

// startLoad arms the open loop of plain TO broadcasts, round-robin over
// the nodes that are not crashed, and the faults, until end.
func (cr *churnRun) startLoad(end sim.Time) {
	l := cr.load
	c := l.c
	l.openLoop(end, func() {
		p, ok := l.nextNode(func(p types.ProcID) bool { return c.Oracle.Proc(p) != failures.Amnesia })
		if !ok {
			l.refused++
			return
		}
		idx := l.add(p, true)
		cr.lastSub[p] = c.Sim.Now()
		l.timed(func() { ok = c.Node(p).TryBcast(churnValue(idx)) })
		if !ok {
			l.ops[idx].measured, l.ops[idx].done = false, true
			l.refused++
		}
	})
	cr.scheduleFaults(end)
}

// scheduleFaults arms one fault per virtual second until end, alternating
// an amnesia crash of one node (healed after 200ms) and a 3/2 partition
// (healed after 300ms), rotating over the nodes.
func (cr *churnRun) scheduleFaults(end sim.Time) {
	c := cr.load.c
	start := c.Sim.Now()
	for k := 0; ; k++ {
		at := start.Add(time.Duration(k+1) * time.Second)
		if at >= end {
			return
		}
		if k%2 == 0 {
			c.Sim.At(at, cr.crash)
		} else {
			c.Sim.At(at, cr.partition)
		}
	}
}

// crash takes the next node in turn down with amnesia, once it has been
// quiet for churnQuiet (checked every tenth of a millisecond).
func (cr *churnRun) crash() {
	c := cr.load.c
	victim := types.ProcID(cr.crashes % simN)
	if c.Sim.Now().Sub(cr.lastSub[victim]) < churnQuiet {
		c.Sim.After(100*time.Microsecond, cr.crash)
		return
	}
	cr.crashes++
	f := cr.open([]types.ProcID{victim}, churnCrashFor)
	c.Oracle.SetProc(victim, failures.Amnesia)
	c.Sim.At(f.heal, func() { c.Oracle.SetProc(victim, failures.Good) })
}

// partition cuts the next pair of nodes in turn off from the other three.
func (cr *churnRun) partition() {
	c := cr.load.c
	k := 2 * cr.partitions
	cr.partitions++
	f := cr.open([]types.ProcID{types.ProcID(k % simN), types.ProcID((k + 1) % simN)}, churnPartitionFor)
	c.Oracle.Partition(c.Procs, f.majority, types.NewProcSet(f.rejoined...))
	c.Sim.At(f.heal, func() { c.Oracle.Heal(c.Procs) })
}

// open records a fault starting now that cuts off the given nodes for d.
func (cr *churnRun) open(cut []types.ProcID, d time.Duration) *churnFault {
	c := cr.load.c
	f := &churnFault{
		at: c.Sim.Now(), heal: c.Sim.Now().Add(d), majority: c.Procs, rejoined: cut,
		outage: -1, rejoin: map[types.ProcID]time.Duration{},
	}
	for _, r := range cut {
		f.majority = f.majority.Without(r)
	}
	cr.faults = append(cr.faults, f)
	return f
}

// verify runs every correctness check of a finished sim-churn pass: the
// TO trace checker over the recorded trace and rejoin safety against the
// cluster's crash snapshots.
func (cr *churnRun) verify() error {
	if cr.load.firstErr != nil {
		return cr.load.firstErr
	}
	c := cr.load.c
	if err := checkTOTrace(c.Log); err != nil {
		return err
	}
	if err := props.CheckRejoinSafety(c.Log, c.Crashes); err != nil {
		return err
	}
	if len(c.Crashes) == 0 {
		return fmt.Errorf("no crash happened: the churn workload is vacuous")
	}
	for _, f := range cr.faults {
		if f.outage < 0 || len(f.rejoin) != len(f.rejoined) {
			return fmt.Errorf("fault at %v: service did not resume (outage %v, %d of %d nodes rejoined)",
				f.at, f.outage, len(f.rejoin), len(f.rejoined))
		}
	}
	return nil
}

// checkTOTrace replays a recorded trace's bcast and brcv events through the
// TO-machine trace checker.
func checkTOTrace(log *props.Log) error {
	tck := check.NewTOChecker()
	for _, e := range log.Events {
		switch e.Kind {
		case props.TOBcast:
			tck.Bcast(e.Value, e.P)
		case props.TOBrcv:
			if err := tck.Brcv(e.Value, e.From, e.P); err != nil {
				return fmt.Errorf("TO check: %w (event %v)", err, e)
			}
		}
	}
	return nil
}

func runSimChurn(cfg runConfig) (*result, error) {
	var cr *churnRun
	// At least two and a half virtual seconds: a crash and a partition.
	span := max(time.Duration(float64(cfg.seconds)*churnVirtualPerWall*float64(time.Second)), 2500*time.Millisecond)
	res, err := runSim(cfg, span, func(reg *obs.Registry) (*simLoad, func(sim.Time), error) {
		var err error
		if cr, err = newChurnRun(cfg, reg); err != nil {
			return nil, nil, err
		}
		return cr.load, cr.startLoad, nil
	})
	if err != nil {
		return nil, fmt.Errorf("sim-churn: %w", err)
	}
	var outage, rejoin []float64
	for _, f := range cr.faults {
		if f.outage >= 0 {
			outage = append(outage, ms(f.outage))
		}
		for _, r := range f.rejoin {
			rejoin = append(rejoin, ms(r))
		}
	}
	res.metrics["outage_p50_ms"] = median(outage)
	res.metrics["rejoin_p50_ms"] = median(rejoin)
	res.info["faults"] = len(cr.faults)
	res.info["outage_samples"] = len(outage)
	res.info["rejoin_samples"] = len(rejoin)
	res.info["outage_p50_ms"] = res.metrics["outage_p50_ms"]
	res.info["rejoin_p50_ms"] = res.metrics["rejoin_p50_ms"]
	res.checkErr = cr.verify()
	return res, nil
}
