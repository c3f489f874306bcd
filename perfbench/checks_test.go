package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/props"
	"repro/internal/rsm"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/types"
)

// Each workload's correctness gate must pass on an honest run and reject
// the same run once its result is tampered with.

func shortKV(t *testing.T) *kvRun {
	t.Helper()
	kv, err := newKVRun(runConfig{seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	end := kv.load.c.Sim.Now().Add(500 * time.Millisecond)
	kv.startLoad(3, end)
	if err := kv.load.runUntil(end); err != nil {
		t.Fatal(err)
	}
	if err := kv.load.drain(); err != nil {
		t.Fatal(err)
	}
	if err := kv.verify(); err != nil {
		t.Fatalf("honest sim-kv run rejected: %v", err)
	}
	return kv
}

func TestKVCheckRejectsDivergentReplica(t *testing.T) {
	kv := shortKV(t)
	ds := kv.load.c.Deliveries(1)
	ds[len(ds)-1], ds[len(ds)-2] = ds[len(ds)-2], ds[len(ds)-1]
	if err := kv.verify(); err == nil || !strings.Contains(err.Error(), "diverges") {
		t.Fatalf("replica swapped at one node: got %v, want a coherence failure", err)
	}
}

func TestKVCheckRejectsStaleAtomicRead(t *testing.T) {
	kv := shortKV(t)
	c := kv.load.c
	ds := c.Deliveries(0)
	// Move the last write before some atomic read of the same key to just
	// after it, at every node alike: replicas stay coherent, but the read's
	// observed value no longer matches the order.
	lastWrite := map[string]int{}
	for j, d := range ds {
		op, err := rsm.DecodeOp(d.Value)
		if err != nil {
			t.Fatal(err)
		}
		if op.Kind == "w" {
			lastWrite[op.Key] = j
			continue
		}
		i, ok := lastWrite[op.Key]
		if !ok {
			continue
		}
		for _, p := range c.Procs.Members() {
			pds := c.Deliveries(p)
			moved := pds[i]
			copy(pds[i:j], pds[i+1:j+1])
			pds[j] = moved
		}
		if err := kv.verify(); err == nil || !strings.Contains(err.Error(), "atomic") {
			t.Fatalf("stale read: got %v, want an atomic check failure", err)
		}
		return
	}
	t.Fatal("no atomic read follows a write of its key; the run is too short")
}

func shortChurn(t *testing.T) *churnRun {
	t.Helper()
	cr, err := newChurnRun(runConfig{seed: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	end := cr.load.c.Sim.Now().Add(2500 * time.Millisecond)
	cr.startLoad(end)
	if err := cr.load.runUntil(end); err != nil {
		t.Fatal(err)
	}
	if err := cr.load.drain(); err != nil {
		t.Fatal(err)
	}
	if err := cr.verify(); err != nil {
		t.Fatalf("honest sim-churn run rejected: %v", err)
	}
	if len(cr.faults) != 2 {
		t.Fatalf("%d faults, want a crash and a partition", len(cr.faults))
	}
	return cr
}

func TestChurnCheckRejectsReorderedDelivery(t *testing.T) {
	cr := shortChurn(t)
	evs := cr.load.c.Log.Events
	var at []int
	for i, e := range evs {
		if e.Kind == props.TOBrcv && e.P == 3 {
			at = append(at, i)
		}
	}
	a, b := &evs[at[len(at)/2]], &evs[at[len(at)/2+1]]
	a.Value, b.Value = b.Value, a.Value
	a.From, b.From = b.From, a.From
	if err := cr.verify(); err == nil || !strings.Contains(err.Error(), "TO check") {
		t.Fatalf("reordered delivery: got %v, want a TO check failure", err)
	}
}

func TestChurnCheckRejectsLostPersistedDelivery(t *testing.T) {
	cr := shortChurn(t)
	cs := &cr.load.c.Crashes[0]
	if len(cs.Persisted) == 0 {
		t.Fatal("crash persisted no deliveries")
	}
	cs.Persisted = cs.Persisted[:len(cs.Persisted)-1]
	if err := cr.verify(); err == nil || !strings.Contains(err.Error(), "rejoin safety") {
		t.Fatalf("shortened persisted prefix: got %v, want a rejoin safety failure", err)
	}
}

func TestChurnCheckRejectsUnresolvedFault(t *testing.T) {
	cr := shortChurn(t)
	delete(cr.faults[1].rejoin, cr.faults[1].rejoined[0])
	if err := cr.verify(); err == nil || !strings.Contains(err.Error(), "did not resume") {
		t.Fatalf("node that never rejoined: got %v, want a resume failure", err)
	}
}

// liveFixture is a consistent live pass: four samples alternating between
// the two connections, every engine delivering probe, s0..s3 in order.
func liveFixture() ([]liveSample, []map[string]time.Time, [][]stack.Delivery, []time.Time) {
	t0 := time.Unix(1000, 0)
	origin := make([]time.Time, liveN)
	for i := range origin {
		origin[i] = t0.Add(-time.Second)
	}
	samples := make([]liveSample, 4)
	recv := []map[string]time.Time{{}, {}}
	order := []stack.Delivery{{From: liveClients[0], Value: "probe"}}
	for i := range samples {
		s := &samples[i]
		s.value = "s" + string(rune('0'+i))
		s.conn = i % 2
		s.due = t0.Add(time.Duration(i) * time.Millisecond)
		s.sent = s.due
		rel := time.Second + time.Duration(i+20)*time.Millisecond
		order = append(order, stack.Delivery{From: liveClients[s.conn], Value: types.Value(s.value), Time: sim.Time(rel)})
		recv[s.conn][s.value] = origin[0].Add(rel + 3*time.Millisecond)
	}
	engineDs := make([][]stack.Delivery, liveN)
	for q := range engineDs {
		engineDs[q] = append([]stack.Delivery(nil), order...)
	}
	return samples, recv, engineDs, origin
}

func TestLiveCheckAcceptsConsistentPass(t *testing.T) {
	samples, recv, engineDs, origin := liveFixture()
	out := analyseLive(samples, recv, nil, nil, engineDs, origin, nil)
	if out.err != nil || out.failed != 0 || len(out.lat) != 4 {
		t.Fatalf("consistent pass: err %v, %d failed, %d samples", out.err, out.failed, len(out.lat))
	}
	if out.r2c[0] < 2.9 {
		t.Fatalf("release to client %v ms, want the fixture's 3 ms", out.r2c[0])
	}
}

func TestLiveCheckRejectsDuplicateDelivery(t *testing.T) {
	samples, recv, engineDs, origin := liveFixture()
	out := analyseLive(samples, recv, []string{"s1"}, nil, engineDs, origin, nil)
	if out.err == nil || !strings.Contains(out.err.Error(), "twice") {
		t.Fatalf("duplicate: got %v", out.err)
	}
}

func TestLiveCheckRejectsDisagreeingEngine(t *testing.T) {
	samples, recv, engineDs, origin := liveFixture()
	ds := engineDs[3]
	ds[1], ds[2] = ds[2], ds[1]
	out := analyseLive(samples, recv, nil, nil, engineDs, origin, nil)
	if out.err == nil || !strings.Contains(out.err.Error(), "TO check at engine 3") {
		t.Fatalf("engine 3 reordered: got %v", out.err)
	}
}

func TestLiveCheckRejectsReceiptBeforeRelease(t *testing.T) {
	samples, recv, engineDs, origin := liveFixture()
	recv[0]["s2"] = recv[0]["s2"].Add(-10 * time.Millisecond)
	out := analyseLive(samples, recv, nil, nil, engineDs, origin, nil)
	if out.err == nil || !strings.Contains(out.err.Error(), "is negative") {
		t.Fatalf("receipt before release: got %v", out.err)
	}
}

func TestModuleOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "repro/internal/vsimpl.(*Node).launchToken", "repro/internal/stack.(*Node).drain"}, "vsimpl"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "repro/internal/stack.(*Node).originSeq"}, "gc"},
		{[]string{"repro/internal/spec/tomachine.New"}, "spec"},
		{[]string{"sort.Sort", "main.quantile"}, "bench"},
		{[]string{"runtime.findRunnable", "runtime.schedule"}, "runtime"},
	} {
		if got := moduleOf(tc.stack, true); got != tc.want {
			t.Errorf("moduleOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

func TestParseAllocProfile(t *testing.T) {
	p, err := parseProfile(allocProfile())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.valueIndex("alloc_space"); err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 || len(p.stack(p.samples[0])) == 0 {
		t.Fatalf("profile has %d samples and no stacks", len(p.samples))
	}
}
