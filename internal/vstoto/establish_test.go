package vstoto

import (
	"reflect"
	"testing"

	"repro/internal/ioa"
	"repro/internal/spec/vsmachine"
	"repro/internal/types"
)

// TestEstablishmentWaitsForOwnSend: Figure 10 requires status = collect
// (own summary sent) for establishment, even if all members' summaries
// have arrived.
func TestEstablishmentWaitsForOwnSend(t *testing.T) {
	p := newTestProc(0, 3)
	v2 := types.View{ID: gid(2, 0), Set: types.RangeProcSet(3)}
	p.Newview(v2)
	if p.Status != StatusSend {
		t.Fatalf("status = %v", p.Status)
	}
	empty := func() *Summary {
		return &Summary{Con: map[types.Label]types.Value{}, Next: 1, High: types.G0()}
	}
	// All three summaries arrive (including one attributed to p itself, as
	// could happen if VS delivered p's own summary from a previous
	// incarnation of the exchange) — but p has not sent, so no
	// establishment.
	p.GprcvSummary(1, empty())
	p.GprcvSummary(2, empty())
	p.GprcvSummary(0, empty())
	if p.Status != StatusSend {
		t.Fatalf("established while status=send (status now %v)", p.Status)
	}
	// After sending, the next summary receipt completes the exchange.
	p.GpsndSummary()
	if p.Status != StatusCollect {
		t.Fatalf("status = %v after send", p.Status)
	}
	p.GprcvSummary(0, empty())
	if p.Status != StatusNormal {
		t.Fatalf("not established after full exchange (status %v)", p.Status)
	}
}

// TestEstablishmentRequiresExactMembership: the exchange completes exactly
// when dom(gotstate) equals the view's membership — summaries from fewer
// members never complete it. (VS guarantees a non-member's summary can
// never be delivered in the view, so Figure 10 does not guard against it;
// the spec-composition tests exercise that guarantee.)
func TestEstablishmentRequiresExactMembership(t *testing.T) {
	p := newTestProc(0, 4)
	v2 := types.View{ID: gid(2, 0), Set: types.NewProcSet(0, 1, 2)}
	p.Newview(v2)
	p.GpsndSummary()
	empty := func() *Summary {
		return &Summary{Con: map[types.Label]types.Value{}, Next: 1, High: types.G0()}
	}
	p.GprcvSummary(0, empty())
	p.GprcvSummary(1, empty())
	if p.Status == StatusNormal {
		t.Fatal("established with a member's summary missing")
	}
	p.GprcvSummary(2, empty())
	if p.Status != StatusNormal {
		t.Fatal("not established once all members reported")
	}
}

// TestReestablishmentAcrossViews: a processor can go through several views
// in a row, each time re-running the exchange; order information flows
// forward through its own summaries.
func TestReestablishmentAcrossViews(t *testing.T) {
	p := newTestProc(0, 3)
	// Put one confirmed value into g0's history.
	p.Bcast("a")
	la := p.Label()
	p.GpsndValue()
	p.GprcvValue(LabeledValue{L: la, A: "a"})
	p.SafeValue(LabeledValue{L: la, A: "a"})
	p.Confirm()

	prevHigh := p.HighPrimary
	for epoch := int64(2); epoch <= 5; epoch++ {
		v := types.View{ID: gid(epoch, 0), Set: types.RangeProcSet(3)}
		p.Newview(v)
		own := p.GpsndSummary()
		p.GprcvSummary(0, own)
		// Peers echo p's own knowledge (they received the same messages).
		p.GprcvSummary(1, own)
		p.GprcvSummary(2, own)
		if p.Status != StatusNormal {
			t.Fatalf("epoch %d: not established", epoch)
		}
		if !prevHigh.Less(p.HighPrimary) {
			t.Fatalf("epoch %d: highprimary did not advance (%v → %v)", epoch, prevHigh, p.HighPrimary)
		}
		prevHigh = p.HighPrimary
		// The confirmed prefix survives every exchange.
		if got := p.ConfirmedLabels(); len(got) != 1 || got[0] != la {
			t.Fatalf("epoch %d: confirmed = %v", epoch, got)
		}
		if p.Order[0] != la {
			t.Fatalf("epoch %d: order lost la: %v", epoch, p.Order)
		}
	}
}

// TestNonPrimaryThenPrimaryRecovery: a value ordered only in a minority
// view's content is recovered when a later primary view forms.
func TestNonPrimaryThenPrimaryRecovery(t *testing.T) {
	p := newTestProc(0, 5)
	// Minority view {0,1}: p labels a value; nothing can confirm.
	vMin := types.View{ID: gid(2, 0), Set: types.NewProcSet(0, 1)}
	p.Newview(vMin)
	own := p.GpsndSummary()
	p.GprcvSummary(0, own)
	p.GprcvSummary(1, &Summary{Con: map[types.Label]types.Value{}, Next: 1, High: types.G0()})
	if p.Status != StatusNormal || p.Primary() {
		t.Fatalf("minority setup wrong: status=%v primary=%t", p.Status, p.Primary())
	}
	p.Bcast("stranded")
	lm := p.Label()
	p.GpsndValue()
	p.GprcvValue(LabeledValue{L: lm, A: "stranded"}) // non-primary: content only
	if len(p.Order) != 0 {
		t.Fatal("minority view ordered a value")
	}

	// Majority view forms; everyone's summaries now include the stranded
	// value through p's summary. Establishment must order it.
	vMaj := types.View{ID: gid(3, 0), Set: types.RangeProcSet(5)}
	p.Newview(vMaj)
	own = p.GpsndSummary()
	p.GprcvSummary(0, own)
	for q := types.ProcID(1); q < 5; q++ {
		p.GprcvSummary(q, &Summary{Con: map[types.Label]types.Value{}, Next: 1, High: types.G0()})
	}
	if p.Status != StatusNormal || !p.Primary() {
		t.Fatalf("majority setup wrong: status=%v primary=%t", p.Status, p.Primary())
	}
	found := false
	for _, l := range p.Order {
		if l == lm {
			found = true
		}
	}
	if !found {
		t.Fatalf("stranded value not recovered into the primary order: %v", p.Order)
	}
	if p.HighPrimary != vMaj.ID {
		t.Errorf("highprimary = %v, want %v", p.HighPrimary, vMaj.ID)
	}
}

// shortcutAuto wraps a VStoTO_p automaton to check the establishment
// shortcut against the definitions it replaces: at every establishment
// Content equals knowncontent(gotstate) and the order built equals
// fullorder(gotstate) (primary) or shortorder(gotstate) (otherwise), and
// the completing safe(x) marks exactly fullorder(gotstate)'s labels safe.
type shortcutAuto struct {
	*Auto
	t      *testing.T
	counts *shortcutCounts
}

func (a shortcutAuto) Input(act ioa.Action) {
	p := a.P
	switch t := act.(type) {
	case vsmachine.Gprcv:
		if _, ok := t.M.(*Summary); ok {
			collecting := p.Status == StatusCollect
			a.Auto.Input(act)
			if !collecting || p.Status != StatusNormal {
				return
			}
			a.t.Helper()
			if known := p.GotState.KnownContent(); !reflect.DeepEqual(p.Content, known) {
				a.t.Fatalf("%v at establishment of %v: content %v, knowncontent %v", p.id, p.Current.ID, p.Content, known)
			}
			want := p.GotState.ShortOrder()
			if p.Primary() {
				want = p.GotState.FullOrder()
				a.counts.primary++
				if len(want) > len(p.GotState.ShortOrder()) {
					a.counts.extra++
				}
				if p.fullLen != len(want) {
					a.t.Fatalf("%v at establishment of %v: fullLen %d, fullorder has %d labels", p.id, p.Current.ID, p.fullLen, len(want))
				}
			}
			if !reflect.DeepEqual(p.Order, want) && !(len(p.Order) == 0 && len(want) == 0) {
				a.t.Fatalf("%v at establishment of %v: order %v, want %v", p.id, p.Current.ID, p.Order, want)
			}
			return
		}
	case vsmachine.Safe:
		if _, ok := t.M.(*Summary); ok {
			before := make(map[types.Label]bool, len(p.SafeLabels))
			for l := range p.SafeLabels {
				before[l] = true
			}
			a.Auto.Input(act)
			want := before
			if p.safeExchComplete() && p.Primary() {
				a.counts.safe++
				for _, l := range p.GotState.FullOrder() {
					want[l] = true
				}
			}
			if !reflect.DeepEqual(p.SafeLabels, want) {
				a.t.Fatalf("%v: safe(summary of %v) left safe labels %v, want %v", p.id, t.P, p.SafeLabels, want)
			}
			return
		}
	}
	a.Auto.Input(act)
}

// shortcutCounts tallies what shortcutAuto saw, for non-vacuity checks.
type shortcutCounts struct {
	// primary counts primary establishments, extra those whose fullorder
	// extends shortorder (the branch that sorts the remaining labels),
	// safe the completing safe(x) inputs in primary views.
	primary, extra, safe int
}

// TestEstablishmentShortcutBranches drives the establishment shortcut
// through shortcutAuto on the cases the randomized runs cannot reach or
// rarely do: content exactly covering the chosen representative's order
// (no labels beyond it), content beyond it, and a representative rebuilt
// after amnesia that orders a label whose value it lost — its order is
// as long as the known content, yet a label remains to be appended.
func TestEstablishmentShortcutBranches(t *testing.T) {
	v := types.View{ID: gid(2, 0), Set: types.RangeProcSet(3)}
	l := func(seq int, origin types.ProcID) types.Label {
		return types.Label{ID: types.G0(), Seqno: seq, Origin: origin}
	}
	ord := []types.Label{l(1, 0), l(1, 2)}
	cases := []struct {
		name     string
		repCon   map[types.Label]types.Value
		peerCon  map[types.Label]types.Value
		want     []types.Label
		extended bool
	}{
		{"covered", map[types.Label]types.Value{ord[0]: "a", ord[1]: "b"}, nil, ord, false},
		{"beyond", map[types.Label]types.Value{ord[0]: "a", ord[1]: "b"},
			map[types.Label]types.Value{l(3, 1): "d", l(2, 1): "c"},
			[]types.Label{ord[0], ord[1], l(2, 1), l(3, 1)}, true},
		{"lost value", map[types.Label]types.Value{ord[0]: "a"},
			map[types.Label]types.Value{l(2, 1): "c"},
			[]types.Label{ord[0], ord[1], l(2, 1)}, true},
	}
	for _, tc := range cases {
		var counts shortcutCounts
		a := shortcutAuto{Auto: &Auto{P: newTestProc(0, 3)}, t: t, counts: &counts}
		a.P.Newview(v)
		own := a.P.GpsndSummary()
		rep := &Summary{Con: tc.repCon, Ord: ord, Next: 2, High: types.G0()}
		peer := &Summary{Con: tc.peerCon, Next: 1, High: types.Bottom}
		for q, x := range map[types.ProcID]*Summary{0: own, 1: peer, 2: rep} {
			a.Input(vsmachine.Gprcv{M: x, P: q, Q: 0})
		}
		for q, x := range map[types.ProcID]*Summary{0: own, 1: peer, 2: rep} {
			a.Input(vsmachine.Safe{M: x, P: q, Q: 0})
		}
		if !reflect.DeepEqual(a.P.Order, tc.want) || len(a.P.SafeLabels) != len(tc.want) {
			t.Errorf("%s: order %v safe %v, want order %v all safe", tc.name, a.P.Order, a.P.SafeLabels, tc.want)
		}
		if counts.primary != 1 || counts.safe != 1 || (counts.extra == 1) != tc.extended {
			t.Errorf("%s: counts %+v", tc.name, counts)
		}
	}
}
