package vsimpl

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/failures"
	"repro/internal/net"
	"repro/internal/props"
	"repro/internal/sim"
	"repro/internal/types"
)

// TestThreeWayPartition: three disjoint components each converge to a view
// of exactly their members, and the VS trace stays conformant.
func TestThreeWayPartition(t *testing.T) {
	const n = 7
	c := newCluster(71, n, n, time.Millisecond, false)
	comps := []types.ProcSet{
		types.NewProcSet(0, 1, 2),
		types.NewProcSet(3, 4),
		types.NewProcSet(5, 6),
	}
	var cut sim.Time
	c.sim.After(40*time.Millisecond, func() {
		c.oracle.Partition(c.procs, comps...)
		cut = c.sim.Now()
	})
	if err := c.sim.Run(sim.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	c.conformance(t, c.procs)
	for _, q := range comps {
		m := props.MeasureVS(c.log, q, cut)
		if !m.Converged {
			t.Errorf("component %v did not converge", q)
		}
	}
}

// TestSingletonViewOperation: a fully isolated node forms a singleton view
// and can send to itself — gpsnd, gprcv, and safe all work with one member.
func TestSingletonViewOperation(t *testing.T) {
	const n = 3
	c := newCluster(73, n, n, time.Millisecond, false)
	loner := types.NewProcSet(2)
	c.sim.After(30*time.Millisecond, func() {
		c.oracle.Partition(c.procs, types.NewProcSet(0, 1), loner)
	})
	c.sim.After(200*time.Millisecond, func() { c.nodes[2].Gpsnd("note-to-self") })
	if err := c.sim.Run(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	c.conformance(t, c.procs)
	v, ok := c.nodes[2].View()
	if !ok || !v.Set.Equal(loner) {
		t.Fatalf("loner's view = %v %t", v, ok)
	}
	st := c.nodes[2].Stats()
	if st.Delivered == 0 || st.SafeEmitted == 0 {
		t.Errorf("singleton view did not deliver/safe its own message: %+v", st)
	}
}

// TestTokenLossViaUglyLinkRecovers: an ugly link can swallow the token;
// the timeout machinery must form a new view and delivery must continue —
// with the trace still conformant throughout.
func TestTokenLossViaUglyLinkRecovers(t *testing.T) {
	const n = 4
	c := newCluster(75, n, n, time.Millisecond, false)
	c.sim.After(20*time.Millisecond, func() {
		// The ring is 0→1→2→3→0; make 1→2 ugly so tokens get lost there.
		c.oracle.SetChannel(1, 2, failures.Ugly)
	})
	var sent int
	var load func()
	load = func() {
		defer c.sim.After(40*time.Millisecond, load)
		sent++
		c.nodes[types.ProcID(sent%n)].Gpsnd(fmt.Sprintf("m%d", sent))
	}
	c.sim.After(30*time.Millisecond, load)
	c.sim.After(800*time.Millisecond, func() { c.oracle.Heal(c.procs) })
	if err := c.sim.Run(sim.Time(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	c.conformance(t, c.procs)
	// Progress continued: every node kept delivering after the heal.
	for _, p := range c.procs.Members() {
		if c.nodes[p].Stats().Delivered == 0 {
			t.Errorf("%v delivered nothing", p)
		}
	}
	// The disruption was actually exercised: someone timed out or dropped
	// packets on the ugly link.
	timeouts := 0
	for _, p := range c.procs.Members() {
		timeouts += c.nodes[p].Stats().Timeouts
	}
	if timeouts == 0 && c.net.Stats().DroppedUgly == 0 {
		t.Error("scenario exercised nothing (no timeouts, no ugly drops)")
	}
}

// TestStatsAccounting: basic sanity of the per-node counters in a stable
// run.
func TestStatsAccounting(t *testing.T) {
	const n = 3
	c := newCluster(77, n, n, time.Millisecond, false)
	c.sim.After(20*time.Millisecond, func() {
		c.nodes[0].Gpsnd("a")
		c.nodes[1].Gpsnd("b")
	})
	if err := c.sim.Run(sim.Time(500 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	for _, p := range c.procs.Members() {
		st := c.nodes[p].Stats()
		if st.Delivered != 2 {
			t.Errorf("%v delivered %d, want 2", p, st.Delivered)
		}
		if st.SafeEmitted != 2 {
			t.Errorf("%v safe-emitted %d, want 2", p, st.SafeEmitted)
		}
		if st.Timeouts != 0 {
			t.Errorf("%v timed out %d times in a stable run", p, st.Timeouts)
		}
		if p != 0 && st.TokenHops == 0 {
			t.Errorf("%v saw no token hops", p)
		}
		fs := c.nodes[p].FormerStats()
		if fs.Initiated != 0 {
			t.Errorf("%v initiated %d formations in a stable run", p, fs.Initiated)
		}
	}
	if c.nodes[0].ID() != 0 {
		t.Error("ID accessor wrong")
	}
}

// TestAnalyticHelpers: the Config bound formulas.
func TestAnalyticHelpers(t *testing.T) {
	cfg := Config{Delta: time.Millisecond, Pi: 5 * time.Millisecond, Mu: 20 * time.Millisecond}
	if got := cfg.TokenTimeout(3); got != 11*time.Millisecond {
		t.Errorf("TokenTimeout = %v, want 11ms", got)
	}
	// b = 9δ + max{π+(n+3)δ, μ} = 9 + max{11, 20} = 29ms.
	if got := cfg.AnalyticB(3); got != 29*time.Millisecond {
		t.Errorf("AnalyticB = %v, want 29ms", got)
	}
	// d = 2π + nδ = 13ms.
	if got := cfg.AnalyticD(3); got != 13*time.Millisecond {
		t.Errorf("AnalyticD = %v, want 13ms", got)
	}
	// d_impl = 3(π + nδ) = 24ms.
	if got := cfg.AnalyticDImpl(3); got != 24*time.Millisecond {
		t.Errorf("AnalyticDImpl = %v, want 24ms", got)
	}
	// Default config: π = (n+2)δ, μ = 2π.
	def := DefaultConfig(time.Millisecond, 4)
	if def.Pi != 6*time.Millisecond || def.Mu != 12*time.Millisecond {
		t.Errorf("DefaultConfig = %+v", def)
	}
}

// TestBadConfigPanics: timing parameters must be positive.
func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero config accepted")
		}
	}()
	c := newCluster(79, 2, 2, time.Millisecond, false)
	NewNode(9, c.procs, c.procs, c.sim, c.net, c.oracle, Config{}, Handlers{})
}

// TestJitterConformance: randomized per-packet delays never break the
// Lemma 4.2 trace properties.
func TestJitterConformance(t *testing.T) {
	const n = 4
	c := newCluster(91, n, n, time.Millisecond, true /* jitter */)
	var i int
	var load func()
	load = func() {
		if c.sim.Now() > sim.Time(600*time.Millisecond) {
			return
		}
		defer c.sim.After(15*time.Millisecond, load)
		i++
		c.nodes[types.ProcID(i%n)].Gpsnd(fmt.Sprintf("j%d", i))
	}
	c.sim.After(5*time.Millisecond, load)
	c.sim.After(200*time.Millisecond, func() {
		c.oracle.Partition(c.procs, types.NewProcSet(0, 1), types.NewProcSet(2, 3))
	})
	c.sim.After(450*time.Millisecond, func() { c.oracle.Heal(c.procs) })
	if err := c.sim.Run(sim.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	c.conformance(t, c.procs)
	if c.nodes[0].Stats().Delivered == 0 {
		t.Fatal("nothing delivered under jitter")
	}
}

// TestCompactionDisabledStillConformant: the E11 ablation mode must not
// change behavior, only token size.
func TestCompactionDisabledStillConformant(t *testing.T) {
	run := func(noCompact bool) []check.MsgID {
		s := sim.New(93)
		oracle := failures.NewOracle(s.Now)
		nw := net.New(s, oracle, net.Config{Delta: time.Millisecond})
		procs := types.RangeProcSet(3)
		cfg := DefaultConfig(time.Millisecond, 3)
		cfg.NoTokenCompaction = noCompact
		log := &props.Log{}
		nodes := make([]*Node, 3)
		for i := range nodes {
			nodes[i] = NewNode(types.ProcID(i), procs, procs, s, nw, oracle, cfg, Handlers{})
			nodes[i].Log = log
		}
		for _, nd := range nodes {
			nd.Start()
		}
		for i := 0; i < 6; i++ {
			i := i
			s.After(time.Duration(5+10*i)*time.Millisecond, func() {
				nodes[i%3].Gpsnd(fmt.Sprintf("m%d", i))
			})
		}
		if err := s.Run(sim.Time(500 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		var order []check.MsgID
		for _, e := range log.Events {
			if e.Kind == props.VSGprcv && e.P == 0 {
				order = append(order, e.Msg)
			}
		}
		return order
	}
	with := run(false)
	without := run(true)
	if len(with) != 6 || len(without) != 6 {
		t.Fatalf("deliveries: %d with, %d without", len(with), len(without))
	}
	for i := range with {
		if with[i] != without[i] {
			t.Fatalf("delivery order differs at %d", i)
		}
	}
}

// TestLaunchCopiesOnlyUndeliveredSuffix: a launched token carries exactly
// the suffix of the leader's sequence that compaction keeps — the entries
// from the minimum member count on — and, under the E11 ablation, the
// whole sequence. It is checked at every step of a loaded run against a
// full copy compacted the way a token hop compacts it.
func TestLaunchCopiesOnlyUndeliveredSuffix(t *testing.T) {
	for _, noCompact := range []bool{false, true} {
		c := newCluster(97, 3, 3, time.Millisecond, false)
		for _, nd := range c.nodes {
			nd.cfg.NoTokenCompaction = noCompact
		}
		leader := c.nodes[0]
		trimmed := 0 // launches that left a non-empty prefix behind
		for step := 0; step < 400; step++ {
			c.nodes[types.ProcID(step%3)].Gpsnd(fmt.Sprintf("m%d", step))
			if err := c.sim.RunFor(250 * time.Microsecond); err != nil {
				t.Fatal(err)
			}
			if !leader.isLeader() {
				t.Fatal("p0 lost the leadership of a stable view")
			}
			tok := leader.newToken()
			ref := &TokenPkt{View: leader.cur, Msgs: append([]TokenMsg(nil), leader.seq...), Delivered: copyCounts(leader.counts)}
			leader.compactToken(ref)
			if noCompact && (tok.Base != 0 || len(tok.Msgs) != len(leader.seq)) {
				t.Fatalf("step %d: ablation launch has base %d and %d entries, want the full %d",
					step, tok.Base, len(tok.Msgs), len(leader.seq))
			}
			if tok.Base != ref.Base || len(tok.Msgs) != len(ref.Msgs) {
				t.Fatalf("step %d (noCompact=%t): launch has base %d and %d entries, compacted copy %d and %d",
					step, noCompact, tok.Base, len(tok.Msgs), ref.Base, len(ref.Msgs))
			}
			for i := range tok.Msgs {
				if tok.Msgs[i].ID != ref.Msgs[i].ID || tok.Msgs[i].ID != leader.seq[tok.Base+i].ID {
					t.Fatalf("step %d: launch entry %d is %v, want %v", step, i, tok.Msgs[i].ID, ref.Msgs[i].ID)
				}
			}
			if len(tok.Msgs) > 0 && &tok.Msgs[0] == &leader.seq[tok.Base] {
				t.Fatalf("step %d: launched token aliases the leader's sequence", step)
			}
			if tok.Base > 0 && len(tok.Msgs) > 0 {
				trimmed++
			}
		}
		if !noCompact && trimmed == 0 {
			t.Fatal("no launch ever trimmed a delivered prefix: the check is vacuous")
		}
	}
}
