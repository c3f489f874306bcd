package stack

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/failures"
	"repro/internal/props"
	"repro/internal/types"
	"repro/internal/vstoto"
)

// TestCheckpointCadenceProportionalToGrowth: with a checkpoint threshold
// far below the size of a full-state checkpoint, checkpoints still cost
// O(1) amortized bytes per appended record. Each node's checkpoint bytes
// stay within its other records' bytes plus one checkpoint, and its
// checkpoint count within growth/threshold + 1. Counting the checkpoint's
// own bytes toward the next trigger breaks both: once a checkpoint
// outgrows the threshold, every quiescent drain writes another one.
//
// A node then crashes with amnesia between two checkpoints. The rebuilt
// node resumes the trigger's count from the replayed end of its last
// checkpoint: it does not checkpoint again merely because it restarted,
// and its next checkpoint comes once the log has grown by the due amount
// since that end, not since the end of the log it restarted from.
func TestCheckpointCadenceProportionalToGrowth(t *testing.T) {
	const every = 1024
	c := NewCluster(Options{Seed: 3, N: 3, Delta: time.Millisecond, CheckpointBytes: every})
	seq := 0
	load := func(values int) {
		for i := 0; i < values; i++ {
			seq++
			p, v := cadenceValue(seq)
			c.Sim.After(time.Duration(i)*cadenceGap, func() { c.Bcast(p, v) })
		}
	}
	settle := func(d time.Duration) {
		t.Helper()
		if err := c.Sim.RunFor(d); err != nil {
			t.Fatal(err)
		}
	}

	load(600)
	settle(time.Second)
	for _, p := range c.Procs.Members() {
		n := c.Node(p)
		if got := len(n.Deliveries()); got != seq {
			t.Fatalf("node %v delivered %d of %d values", p, got, seq)
		}
		start, end := n.WAL().LastCheckpoint()
		if start < 0 || end-start <= 4*every {
			t.Fatalf("node %v: last checkpoint spans [%d, %d): the test needs checkpoints well above the %dB threshold",
				p, start, end, every)
		}
		ckpt := n.WAL().CheckpointedBytes()
		growth := n.WAL().EndOffset() - ckpt
		if ckpt > growth+(end-start) {
			t.Errorf("node %v: %d checkpoint bytes for %d bytes of other records (last checkpoint %dB)",
				p, ckpt, growth, end-start)
		}
		if k := n.Checkpoints(); k < 2 || k > growth/every+1 {
			t.Errorf("node %v: %d checkpoints for %d bytes of other records, want 2..%d",
				p, k, growth, growth/every+1)
		}
	}

	// Crash the victim, quiescent, with its trigger between a quarter and
	// half of the way to the next checkpoint: far enough that a count
	// restarted at the log end would show, near enough that the rejoin's
	// own records cannot make a checkpoint due.
	victim := types.ProcID(1)
	n := c.Node(victim)
	need := func() int {
		start, end := n.WAL().LastCheckpoint()
		if end-start > every {
			return end - start
		}
		return every
	}
	stop := trickle(c, &seq)
	ckpts := n.Checkpoints()
	stepUntil(t, c, 2*time.Second, func() bool {
		return n.Checkpoints() > ckpts && n.WAL().SinceCheckpoint() >= need()/4
	})
	*stop = true
	settle(200 * time.Millisecond)
	due := need()
	if s := n.WAL().SinceCheckpoint(); s >= due/2 || n.ckptPending {
		t.Fatalf("victim quiesced %d bytes past its last checkpoint (pending %v), want below %d",
			s, n.ckptPending, due/2)
	}
	c.Oracle.SetProc(victim, failures.Amnesia)
	settle(time.Millisecond)
	c.Oracle.SetProc(victim, failures.Good)

	snap := n.LastReplay()
	base := n.WAL().Storage().Base()
	start, end := n.WAL().LastCheckpoint()
	if snap.CheckpointEnd <= 0 || end != base+snap.CheckpointEnd || start != base+snap.CheckpointAt {
		t.Fatalf("rebuilt WAL's last checkpoint [%d, %d), replay found [%d, %d) over base %d",
			start, end, base+snap.CheckpointAt, base+snap.CheckpointEnd, base)
	}
	if got, want := n.WAL().SinceCheckpoint(), n.WAL().EndOffset()-end; got != want || got < due/4 {
		t.Fatalf("rebuilt WAL counts %d bytes since its last checkpoint, want %d (≥ %d)", got, want, due/4)
	}
	if need() != due {
		t.Fatalf("rebuilt WAL needs %d bytes of growth, before the crash %d", need(), due)
	}
	ckptsAtRestart := n.Checkpoints()
	lastEnd := end
	settle(300 * time.Millisecond)
	if n.Recoveries() != 1 || !n.Proc().Primary() || n.Proc().Status != vstoto.StatusNormal {
		t.Fatalf("victim did not rejoin a primary view (recoveries %d)", n.Recoveries())
	}
	if n.Checkpoints() != ckptsAtRestart {
		t.Fatalf("rebuilt node checkpointed at rejoin: %d bytes since its last checkpoint, %d due",
			n.WAL().SinceCheckpoint(), due)
	}

	// Resume load: the next checkpoint starts at the first quiescent
	// instant at least `due` bytes past the replayed checkpoint's end.
	stop = trickle(c, &seq)
	stepUntil(t, c, 2*time.Second, func() bool { return n.Checkpoints() > ckptsAtRestart })
	*stop = true
	next, _ := n.WAL().LastCheckpoint()
	if grown := next - lastEnd; grown < due || grown >= due+due/4 {
		t.Errorf("first checkpoint after the restart came %d bytes after the replayed checkpoint end, want %d..%d",
			grown, due, due+due/4)
	}
	settle(2 * time.Second)
	toConformance(t, c.Log)
	if err := props.CheckRejoinSafety(c.Log, c.Crashes); err != nil {
		t.Fatal(err)
	}
	for _, p := range c.Procs.Members() {
		if got := len(c.Node(p).Deliveries()); got != seq {
			t.Errorf("node %v delivered %d of %d values", p, got, seq)
		}
	}
}

// cadenceGap paces the cadence test's submissions.
const cadenceGap = 300 * time.Microsecond

// cadenceValue is the cadence test's seq-th submission: round-robin over
// three origins, 32-byte values.
func cadenceValue(seq int) (types.ProcID, types.Value) {
	return types.ProcID(seq % 3), types.Value(fmt.Sprintf("value-%05d-padded-to-32-bytes", seq))
}

// trickle submits one value per cadenceGap until *stop is set.
func trickle(c *Cluster, seq *int) (stop *bool) {
	stop = new(bool)
	var tick func()
	tick = func() {
		if *stop {
			return
		}
		*seq++
		c.Bcast(cadenceValue(*seq))
		c.Sim.After(cadenceGap, tick)
	}
	c.Sim.Defer(tick)
	return stop
}
