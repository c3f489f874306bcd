package stack

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/failures"
	"repro/internal/props"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/types"
)

// TestOriginSeqSurvivesPipelinedCrashes: the per-origin release counters
// that stamp each delivery record's FromSeq and each brcv's ValueSeq stay
// exact across amnesia crashes that tear delivery records still in the
// pipeline. Every crash lands while the victim has delivery records in
// flight; short outages rejoin the old view, long ones force a view
// change. Afterwards every node's WAL is replayed and each durable
// delivery record is checked against a rescan of the replayed order, and
// each node's live counters against a rescan of its released prefix.
func TestOriginSeqSurvivesPipelinedCrashes(t *testing.T) {
	c := NewCluster(Options{Seed: 5, N: 5, Delta: time.Millisecond, StorageLatency: 2 * time.Millisecond})
	// Open-loop load: every 500µs one node in turn submits a fresh value,
	// so each node always has several delivery records in the pipeline.
	ticks, loadEnd := 0, sim.Time(900*time.Millisecond)
	var tick func()
	tick = func() {
		if c.Sim.Now() >= loadEnd {
			return
		}
		c.Bcast(types.ProcID(ticks%5), types.Value(fmt.Sprintf("v%d", ticks)))
		ticks++
		c.Sim.After(500*time.Microsecond, tick)
	}
	c.Sim.After(20*time.Millisecond, tick)

	for round := 0; round < 8; round++ {
		victim := types.ProcID((3 * round) % 5)
		if err := c.Sim.RunFor(40 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		stepUntil(t, c, time.Second, func() bool { return c.Node(victim).deliverInFlight > 1 })
		outage := time.Millisecond
		if round%2 == 1 {
			outage = 30 * time.Millisecond
		}
		c.Oracle.SetProc(victim, failures.Amnesia)
		c.Sim.After(outage, func() { c.Oracle.SetProc(victim, failures.Good) })
	}
	if err := c.Sim.Run(sim.Time(4 * time.Second)); err != nil {
		t.Fatal(err)
	}

	toConformance(t, c.Log)
	// Only submissions that became durable are owed a delivery: a crash
	// drops both what an amnesiac node refuses and a bcast record it tears.
	sent := len(c.Log.Filter(func(e props.Event) bool { return e.Kind == props.TOBcast }))
	if err := props.CheckRejoinSafety(c.Log, c.Crashes); err != nil {
		t.Fatal(err)
	}
	recoveries := 0
	for _, p := range c.Procs.Members() {
		n := c.Node(p)
		recoveries += n.Recoveries()
		if got := len(n.Deliveries()); got != sent {
			t.Errorf("node %v delivered %d of %d values", p, got, sent)
		}
		checkDurableFromSeqs(t, p, recovery.Replay(n.WAL().Storage().Contents()))
		rescan := make(map[types.ProcID]int)
		for _, l := range n.Proc().Order[:n.Proc().NextReport-1] {
			rescan[l.Origin]++
		}
		for _, q := range c.Procs.Members() {
			if n.released[q] != rescan[q] {
				t.Errorf("node %v: released count of origin %v is %d, its released prefix holds %d",
					p, q, n.released[q], rescan[q])
			}
		}
	}
	if recoveries != 8 {
		t.Fatalf("%d recoveries, want 8", recoveries)
	}
	for _, cs := range c.Crashes {
		if len(cs.Persisted) == 0 {
			t.Fatalf("the crash of %v at %v left no durable deliveries to reseed from", cs.P, cs.T)
		}
	}
}

// checkDurableFromSeqs checks every durable delivery record of p against
// a rescan of the replayed order: the record sits at its order position,
// names that position's label and origin, and carries the origin's count
// of labels up to and including that position.
func checkDurableFromSeqs(t *testing.T, p types.ProcID, snap *recovery.Snapshot) {
	t.Helper()
	if snap.Truncated != "" {
		t.Fatalf("node %v: WAL replay truncated: %s", p, snap.Truncated)
	}
	perOrigin := make(map[types.ProcID]int)
	for i, d := range snap.Delivered {
		if i >= len(snap.Order) || d.Pos != i+1 || d.Label != snap.Order[i] || d.From != d.Label.Origin {
			t.Fatalf("node %v: delivery record %d (%+v) does not match the replayed order", p, i+1, d)
		}
		perOrigin[d.From]++
		if d.FromSeq != perOrigin[d.From] {
			t.Fatalf("node %v: delivery record at position %d has FromSeq %d, the order rescan gives %d",
				p, d.Pos, d.FromSeq, perOrigin[d.From])
		}
	}
}
