package stack

import (
	"testing"
	"time"

	"repro/internal/failures"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/vstoto"
)

// tornWriteCluster is a three-node cluster whose storage latency (5δ) is
// far longer than one token hop, so records written behind the token are
// still in flight when their effects have already reached the peers.
func tornWriteCluster() *Cluster {
	return NewCluster(Options{Seed: 1, N: 3, Delta: time.Millisecond, StorageLatency: 5 * time.Millisecond})
}

// stepUntil advances the simulator in 50µs steps until cond holds.
func stepUntil(t *testing.T, c *Cluster, limit time.Duration, cond func() bool) {
	t.Helper()
	deadline := c.Sim.Now().Add(limit)
	for !cond() {
		if c.Sim.Now() > deadline {
			t.Fatal("condition never held")
		}
		if err := c.Sim.RunFor(50 * time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
}

// amnesiaBlip wipes p and brings it back 1ms later — quicker than the
// peers' token-loss timeout, so the rebuilt node rejoins a view change
// that still sees it as a member of the old primary view.
func amnesiaBlip(c *Cluster, p types.ProcID) {
	c.Oracle.SetProc(p, failures.Amnesia)
	c.Sim.After(time.Millisecond, func() { c.Oracle.SetProc(p, failures.Good) })
}

// durable replays what p's stable storage holds right now.
func durable(c *Cluster, p types.ProcID) *recovery.Snapshot {
	return recovery.Replay(c.Node(p).WAL().Storage().Contents())
}

// TestAmnesiaAfterEscapedLabelDeliversOnce: a value labeled and sent on
// the token before its label record is durable, at an origin that then
// loses that record to an amnesia crash, must still be delivered exactly
// once everywhere. Recovery puts the value back among the unlabeled
// submissions; without the post-exchange check it would be labeled again
// and delivered twice.
func TestAmnesiaAfterEscapedLabelDeliversOnce(t *testing.T) {
	c := tornWriteCluster()
	origin := types.ProcID(1)
	if err := c.Sim.RunFor(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	c.Bcast(origin, "x")
	// Crash the origin once a peer holds the label but the origin's own
	// label record is not yet durable.
	stepUntil(t, c, time.Second, func() bool {
		escaped := false
		for l := range c.Node(0).Proc().Content {
			escaped = escaped || l.Origin == origin
		}
		return escaped && len(durable(c, origin).Pending) == 1
	})
	amnesiaBlip(c, origin)
	if err := c.Sim.Run(sim.Time(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if c.Node(origin).Recoveries() != 1 {
		t.Fatal("origin never recovered")
	}
	toConformance(t, c.Log)
	for _, p := range c.Procs.Members() {
		if got := len(c.Deliveries(p)); got != 1 {
			t.Errorf("node %v delivered %d values, want 1: %v", p, got, c.Deliveries(p))
		}
	}
}

// TestEscapedLabelSurvivesIsolatedRestart: as above, but the origin
// restarts cut off from its peers, so its first view after the crash is
// a singleton that holds no copy of the escaped label. The restored
// submission must wait for a primary view's state exchange instead of
// being labeled again in the singleton view.
func TestEscapedLabelSurvivesIsolatedRestart(t *testing.T) {
	c := tornWriteCluster()
	origin := types.ProcID(1)
	if err := c.Sim.RunFor(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	c.Bcast(origin, "x")
	stepUntil(t, c, time.Second, func() bool {
		escaped := false
		for l := range c.Node(0).Proc().Content {
			escaped = escaped || l.Origin == origin
		}
		return escaped && len(durable(c, origin).Pending) == 1
	})
	c.Oracle.Isolate(types.NewProcSet(origin), c.Procs)
	c.Oracle.SetProc(origin, failures.Amnesia)
	c.Sim.After(time.Millisecond, func() { c.Oracle.SetProc(origin, failures.Good) })
	stepUntil(t, c, time.Second, func() bool {
		v := c.Node(origin).Proc().Current
		return v.Set.Size() == 1 && c.Node(origin).Proc().Status == vstoto.StatusNormal
	})
	if err := c.Sim.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	c.Oracle.Heal(c.Procs)
	if err := c.Sim.Run(sim.Time(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	toConformance(t, c.Log)
	for _, p := range c.Procs.Members() {
		if got := len(c.Deliveries(p)); got != 1 {
			t.Errorf("node %v delivered %d values, want 1: %v", p, got, c.Deliveries(p))
		}
	}
}

// TestAmnesiaAfterConfirmKeepsOrder: a node that acknowledged labels on
// the token (so its peers confirmed and delivered them) but crashed before
// its order-append records were durable restores a shorter order than its
// peers, under the same highprimary. When it rejoins, its order must not
// be the representative one: the establishment would re-sort the lost
// suffix in label order and move values the peers already delivered.
func TestAmnesiaAfterConfirmKeepsOrder(t *testing.T) {
	c := tornWriteCluster()
	victim := types.ProcID(2) // highest id: the representative on ties
	if err := c.Sim.RunFor(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Two labels from p0 ahead of one from p1 in the token's sequence,
	// while label order puts p1's first label between them: the total
	// order is a1 a2 b1, label order a1 b1 a2.
	c.Bcast(0, "a1")
	c.Bcast(0, "a2")
	if err := c.Sim.RunFor(2 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	c.Bcast(1, "b1")
	// Crash the victim once p0 has confirmed all three but the victim's
	// durable order holds at most a1.
	stepUntil(t, c, time.Second, func() bool {
		return c.Node(0).Proc().NextConfirm-1 == 3 && len(durable(c, victim).Order) <= 1
	})
	amnesiaBlip(c, victim)
	if err := c.Sim.Run(sim.Time(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if c.Node(victim).Recoveries() != 1 {
		t.Fatal("victim never recovered")
	}
	toConformance(t, c.Log)
	ref := c.Deliveries(0)
	if len(ref) != 3 {
		t.Fatalf("p0 delivered %d values, want 3", len(ref))
	}
	for _, p := range c.Procs.Members() {
		got := c.Deliveries(p)
		if len(got) != len(ref) {
			t.Fatalf("node %v delivered %d values, p0 %d", p, len(got), len(ref))
		}
		for i := range ref {
			if got[i].Value != ref[i].Value {
				t.Fatalf("node %v position %d is %q, p0 delivered %q", p, i+1, got[i].Value, ref[i].Value)
			}
		}
	}
}

// TestAmnesiaWhilePausedKeepsDeliveryStream: a delivery record that
// becomes durable while its processor is paused (bad) must be released
// then, not when the pause ends. Replay counts every durable delivery
// record as delivered, so a release held back across an amnesia crash
// during the pause would leave a gap in the processor's deliveries.
func TestAmnesiaWhilePausedKeepsDeliveryStream(t *testing.T) {
	c := tornWriteCluster()
	victim := types.ProcID(2)
	if err := c.Sim.RunFor(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	c.Bcast(0, "a1")
	c.Bcast(0, "a2")
	c.Bcast(1, "b1")
	// Pause the victim while one of its delivery records is in flight,
	// long enough for the record to become durable, then wipe it.
	stepUntil(t, c, time.Second, func() bool { return c.Node(victim).deliverInFlight > 0 })
	c.Oracle.SetProc(victim, failures.Bad)
	if err := c.Sim.RunFor(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got, want := len(c.Deliveries(victim)), len(durable(c, victim).Delivered); got != want {
		t.Fatalf("paused victim released %d deliveries, its WAL holds %d", got, want)
	}
	amnesiaBlip(c, victim)
	if err := c.Sim.Run(sim.Time(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	toConformance(t, c.Log)
	for _, p := range c.Procs.Members() {
		if got := len(c.Deliveries(p)); got != 3 {
			t.Errorf("node %v delivered %d values, want 3", p, got)
		}
	}
}
