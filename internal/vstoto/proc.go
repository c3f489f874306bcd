package vstoto

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/types"
)

// Status is the VStoTO_p processing status of Figure 9.
type Status int

// The three statuses: normal (anywhere outside the first recovery phase),
// send (a new view was announced; the state-exchange summary is not yet
// sent), collect (waiting for the remaining members' summaries).
const (
	StatusNormal Status = iota
	StatusSend
	StatusCollect
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case StatusNormal:
		return "normal"
	case StatusSend:
		return "send"
	case StatusCollect:
		return "collect"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Proc is the per-processor VStoTO_p automaton: the state of Figure 9 with
// the transitions of Figure 10, exposed as explicit precondition/effect
// method pairs so that both the randomized ioa executor and the timed
// event-driven stack can drive it.
type Proc struct {
	id types.ProcID
	qs types.QuorumSystem

	// Current is the current view (views⊥; ⊥ encoded as ID.IsBottom()).
	Current types.View
	// NextSeqno generates the per-view label sequence numbers, from 1.
	NextSeqno int
	// Buffer holds labels of values labeled but not yet gpsnd'd.
	Buffer []types.Label
	// Order is the tentative total order of labels.
	Order []types.Label
	// NextConfirm is the 1-based index of the next unconfirmed position in
	// Order.
	NextConfirm int
	// NextReport is the 1-based index of the next confirmed position not
	// yet released to the client.
	NextReport int
	// HighPrimary is the highest established-primary view identifier that
	// has affected Order (G⊥).
	HighPrimary types.ViewID
	// Status is normal/send/collect.
	Status Status
	// Delay buffers client values not yet labeled.
	Delay []types.Value
	// Content is the label→value relation (a partial function; Lemma 6.5).
	Content map[types.Label]types.Value
	// GotState accumulates state-exchange summaries in the current view.
	GotState GotState
	// SafeExch is the set of members whose summaries are known safe.
	SafeExch map[types.ProcID]bool
	// SafeLabels is the set of labels reported safe in the current view.
	SafeLabels map[types.Label]bool

	// fullLen is the length of fullorder(gotstate) once the current view
	// is established as primary, 0 before: Order only grows by appends
	// after that establishment, so Order[:fullLen] is fullorder(gotstate)
	// for the rest of the view, and SafeSummary reads it there instead of
	// recomputing it. Derived state, not part of Figure 9.
	fullLen int

	// LiteralFigure10Label reverts label(a)_p to the paper's literal
	// precondition (no status check). It exists to *study* the resulting
	// defect: with it set, a value labeled during recovery is ordered
	// twice, and both the randomized checker and the bounded exhaustive
	// explorer find the violation (see TestExploreFindsLiteralLabelBug).
	// Never set it in real use.
	LiteralFigure10Label bool

	// History variables for the Section 6 proof apparatus (maintained when
	// TrackHistory is set; the timed stack leaves it off).
	TrackHistory bool
	// Established[g] is the paper's established[p, g].
	Established map[types.ViewID]bool
	// BuildOrder[g] is the paper's buildorder[p, g]: the last value of
	// Order while p was in view g.
	BuildOrder map[types.ViewID][]types.Label

	// Observability handles (SetObs; all nil when disabled).
	mLabels      *obs.Counter
	mConfirms    *obs.Counter
	mSummaries   *obs.Counter
	mEstablished *obs.Counter
	gOrderLen    *obs.Gauge
}

// NewProc creates VStoTO_p. Processors in p0 start in the initial view
// ⟨g0, P0⟩ with highprimary g0; the rest start with both ⊥.
func NewProc(id types.ProcID, qs types.QuorumSystem, p0 types.ProcSet) *Proc {
	p := &Proc{
		id:          id,
		qs:          qs,
		NextSeqno:   1,
		NextConfirm: 1,
		NextReport:  1,
		Content:     make(map[types.Label]types.Value),
		GotState:    make(GotState),
		SafeExch:    make(map[types.ProcID]bool),
		SafeLabels:  make(map[types.Label]bool),
		Established: make(map[types.ViewID]bool),
		BuildOrder:  make(map[types.ViewID][]types.Label),
	}
	if p0.Contains(id) {
		p.Current = types.InitialView(p0)
		p.HighPrimary = types.G0()
		p.Established[types.G0()] = true
	}
	return p
}

// ID returns the processor identifier.
func (p *Proc) ID() types.ProcID { return p.id }

// SetObs binds the layer's obs instruments from the registry (nil disables
// at zero cost): vstoto.labels/confirms/summaries/establishments counters
// and the vstoto.order_len high-water gauge.
func (p *Proc) SetObs(reg *obs.Registry) {
	p.mLabels = reg.Counter("vstoto.labels")
	p.mConfirms = reg.Counter("vstoto.confirms")
	p.mSummaries = reg.Counter("vstoto.summaries")
	p.mEstablished = reg.Counter("vstoto.establishments")
	p.gOrderLen = reg.Gauge("vstoto.order_len")
}

// Primary is the derived variable of Figure 9: current ≠ ⊥ and current.set
// contains a quorum.
func (p *Proc) Primary() bool {
	return !p.Current.ID.IsBottom() && p.qs.IsQuorumContained(p.Current.Set)
}

func (p *Proc) recordOrder() {
	if p.TrackHistory && !p.Current.ID.IsBottom() {
		// Share the order's backing array instead of copying: Order is
		// append-only within a view, and the three-index expression caps the
		// stored slice at its current length, so a later append reallocates
		// rather than writing through the shared prefix. The eager copy made
		// every primary-view gprcv O(|Order|), i.e. O(n²) per view
		// (BenchmarkRecordOrderHistory pins the asymptotic difference,
		// TestBuildOrderImmutable the aliasing safety).
		p.BuildOrder[p.Current.ID] = p.Order[:len(p.Order):len(p.Order)]
	}
}

// --- Input actions -------------------------------------------------------

// Bcast applies the input bcast(a)_p: append a to delay.
func (p *Proc) Bcast(a types.Value) { p.Delay = append(p.Delay, a) }

// Newview applies the input newview(v)_p.
func (p *Proc) Newview(v types.View) {
	p.Current = v
	p.NextSeqno = 1
	p.Buffer = nil
	p.GotState = make(GotState)
	p.SafeExch = make(map[types.ProcID]bool)
	p.SafeLabels = make(map[types.Label]bool)
	p.fullLen = 0
	p.Status = StatusSend
}

// GprcvValue applies the input gprcv(⟨l,a⟩)_{q,p} for an ordinary message.
func (p *Proc) GprcvValue(lv LabeledValue) {
	p.Content[lv.L] = lv.A
	if p.Primary() {
		p.Order = append(p.Order, lv.L)
		p.gOrderLen.Max(int64(len(p.Order)))
		p.recordOrder()
	}
}

// GprcvSummary applies the input gprcv(x)_{q,p} for a state-exchange
// summary; it performs view establishment when the last summary arrives.
func (p *Proc) GprcvSummary(q types.ProcID, x *Summary) {
	for l, a := range x.Con {
		p.Content[l] = a
	}
	p.GotState[q] = x
	if p.GotState.domainEquals(p.Current.Set) && p.Status == StatusCollect {
		p.NextConfirm = p.GotState.MaxNextConfirm()
		if p.Primary() {
			p.Order = p.fullOrder()
			p.fullLen = len(p.Order)
			p.HighPrimary = p.Current.ID
		} else {
			// ShortOrder aliases the chosen representative's summary; cap the
			// slice at its length so appends in a later primary view
			// reallocate instead of mutating the (immutable) summary.
			short := p.GotState.ShortOrder()
			p.Order = short[:len(short):len(short)]
			p.HighPrimary = p.GotState.MaxPrimary()
		}
		p.Status = StatusNormal
		p.mEstablished.Inc()
		p.gOrderLen.Max(int64(len(p.Order)))
		if p.TrackHistory {
			p.Established[p.Current.ID] = true
		}
		p.recordOrder()
	}
}

// fullOrder computes fullorder(gotstate) as a fresh slice at
// establishment, from Content rather than from knowncontent(gotstate):
// at that instant the two are equal. Every summary's con was merged into
// Content on receipt; this processor's own summary carried all of its
// Content; and nothing else adds a label between that send and the last
// summary's arrival — label(a)_p requires status normal, and VS orders
// every summary of the view before any ordinary message of it, since a
// member sends values only once it has received every summary. The
// labels beyond shortorder are then Content's labels outside it: none
// when every label of Content is in shortorder, the common case, which
// needs no set of shortorder's labels.
func (p *Proc) fullOrder() []types.Label {
	if p.LiteralFigure10Label {
		// A value labeled in collect status is in Content but in no
		// summary, so the identity does not hold.
		return p.GotState.FullOrder()
	}
	short := p.GotState.ShortOrder()
	// A processor rebuilt after amnesia may order labels whose values it
	// lost, so shortorder need not lie inside Content: count, don't assume.
	inContent := 0
	for _, l := range short {
		if _, ok := p.Content[l]; ok {
			inContent++
		}
	}
	out := make([]types.Label, len(short), len(short)+len(p.Content)-inContent)
	copy(out, short)
	if inContent == len(p.Content) {
		return out
	}
	inShort := make(map[types.Label]bool, len(short))
	for _, l := range short {
		inShort[l] = true
	}
	for l := range p.Content {
		if !inShort[l] {
			out = append(out, l)
		}
	}
	types.SortLabels(out[len(short):])
	return out
}

// SafeValue applies the input safe(⟨l,a⟩)_{q,p}.
func (p *Proc) SafeValue(lv LabeledValue) {
	if p.Primary() {
		p.SafeLabels[lv.L] = true
	}
}

// SafeSummary applies the input safe(x)_{q,p} for a state-exchange summary.
func (p *Proc) SafeSummary(q types.ProcID) {
	p.SafeExch[q] = true
	if p.safeExchComplete() && p.Primary() {
		// Every summary is safe only after it arrived here, so the view
		// is established and Order[:fullLen] is fullorder(gotstate).
		for _, l := range p.Order[:p.fullLen] {
			p.SafeLabels[l] = true
		}
	}
}

func (p *Proc) safeExchComplete() bool {
	if p.Current.ID.IsBottom() || len(p.SafeExch) != p.Current.Set.Size() {
		return false
	}
	for _, q := range p.Current.Set.Members() {
		if !p.SafeExch[q] {
			return false
		}
	}
	return true
}

// --- Locally controlled actions ------------------------------------------

// LabelEnabled reports whether the internal action label(a)_p is enabled,
// returning the value at the head of delay.
//
// Figure 10 states the precondition as "a is head of delay ∧ current ≠ ⊥";
// we additionally require status = normal. Without it, a value labeled
// between newview and the completion of state exchange enters the sender's
// own summary con, is ordered once at establishment (via fullorder) and
// again when its ordinary message is later delivered — a duplicate that
// breaks Lemma 6.21 and the forward simulation (our randomized checker
// finds this in seconds). The delay queue exists precisely to hold values
// during recovery, so the strengthened precondition matches the paper's
// intent ("normal activity") and restores the proven invariants.
func (p *Proc) LabelEnabled() (types.Value, bool) {
	if len(p.Delay) == 0 || p.Current.ID.IsBottom() {
		return "", false
	}
	if p.Status != StatusNormal && !p.LiteralFigure10Label {
		return "", false
	}
	return p.Delay[0], true
}

// Label performs label(a)_p and returns the label assigned.
func (p *Proc) Label() types.Label {
	a, ok := p.LabelEnabled()
	if !ok {
		panic("vstoto: Label performed while disabled")
	}
	l := types.Label{ID: p.Current.ID, Seqno: p.NextSeqno, Origin: p.id}
	p.mLabels.Inc()
	p.Content[l] = a
	p.Buffer = append(p.Buffer, l)
	p.NextSeqno++
	p.Delay = p.Delay[1:]
	return l
}

// GpsndValueEnabled reports whether gpsnd(⟨l,a⟩)_p is enabled, returning
// the pair to send.
func (p *Proc) GpsndValueEnabled() (LabeledValue, bool) {
	if p.Status != StatusNormal || len(p.Buffer) == 0 {
		return LabeledValue{}, false
	}
	l := p.Buffer[0]
	a, ok := p.Content[l]
	if !ok {
		return LabeledValue{}, false
	}
	return LabeledValue{L: l, A: a}, true
}

// GpsndValue performs gpsnd(⟨l,a⟩)_p, returning the message for the VS
// layer.
func (p *Proc) GpsndValue() LabeledValue {
	lv, ok := p.GpsndValueEnabled()
	if !ok {
		panic("vstoto: GpsndValue performed while disabled")
	}
	p.Buffer = p.Buffer[1:]
	return lv
}

// GpsndSummaryEnabled reports whether the state-exchange gpsnd(x)_p is
// enabled.
func (p *Proc) GpsndSummaryEnabled() bool { return p.Status == StatusSend }

// SummaryMessage builds (without any state change) the summary
// x = ⟨content, order, nextconfirm, highprimary⟩ that the state-exchange
// gpsnd would carry. The summary is an immutable snapshot: Ord shares the
// order's backing array with its capacity clipped (Order is append-only, so
// any later growth reallocates away from the shared prefix — O(1) instead
// of an O(|Order|) copy per send; TestSummaryImmutable pins it). Con must
// still be copied: Content is a map, mutated in place by later labels and
// deliveries, and maps have no copy-on-write prefix to share.
func (p *Proc) SummaryMessage() *Summary {
	con := make(map[types.Label]types.Value, len(p.Content))
	for l, a := range p.Content {
		con[l] = a
	}
	return &Summary{
		Con:  con,
		Ord:  p.Order[:len(p.Order):len(p.Order)],
		Next: p.NextConfirm,
		High: p.HighPrimary,
	}
}

// CommitSummarySend applies the effect of the state-exchange gpsnd(x)_p:
// status moves from send to collect.
func (p *Proc) CommitSummarySend() {
	if !p.GpsndSummaryEnabled() {
		panic("vstoto: CommitSummarySend while not in send status")
	}
	p.mSummaries.Inc()
	p.Status = StatusCollect
}

// GpsndSummary performs the state-exchange gpsnd(x)_p: it builds the
// summary snapshot and moves to collect.
func (p *Proc) GpsndSummary() *Summary {
	if !p.GpsndSummaryEnabled() {
		panic("vstoto: GpsndSummary performed while disabled")
	}
	x := p.SummaryMessage()
	p.CommitSummarySend()
	return x
}

// ConfirmEnabled reports whether the internal action confirm_p is enabled.
func (p *Proc) ConfirmEnabled() bool {
	if !p.Primary() || p.NextConfirm > len(p.Order) {
		return false
	}
	return p.SafeLabels[p.Order[p.NextConfirm-1]]
}

// Confirm performs confirm_p.
func (p *Proc) Confirm() {
	if !p.ConfirmEnabled() {
		panic("vstoto: Confirm performed while disabled")
	}
	p.mConfirms.Inc()
	p.NextConfirm++
}

// BrcvEnabled reports whether the output brcv(a)_{q,p} is enabled,
// returning the origin q and value a.
func (p *Proc) BrcvEnabled() (types.ProcID, types.Value, bool) {
	return p.BrcvEnabledAt(p.NextReport)
}

// BrcvEnabledAt reports whether brcv would be enabled with NextReport at
// pos — the lookahead the pipelined stack uses to write delivery records
// for positions beyond the one currently awaiting its durability callback,
// without committing the automaton state until each release actually
// happens.
func (p *Proc) BrcvEnabledAt(pos int) (types.ProcID, types.Value, bool) {
	if pos >= p.NextConfirm || pos > len(p.Order) {
		return 0, "", false
	}
	l := p.Order[pos-1]
	a, ok := p.Content[l]
	if !ok {
		return 0, "", false
	}
	return l.Origin, a, true
}

// Brcv performs brcv(a)_{q,p}, returning the origin and value released to
// the client.
func (p *Proc) Brcv() (types.ProcID, types.Value) {
	q, a, ok := p.BrcvEnabled()
	if !ok {
		panic("vstoto: Brcv performed while disabled")
	}
	p.NextReport++
	return q, a
}

// Quiescent reports whether no locally controlled action is enabled — used
// by the timed stack, where good processors run enabled actions eagerly.
func (p *Proc) Quiescent() bool {
	if _, ok := p.LabelEnabled(); ok {
		return false
	}
	if _, ok := p.GpsndValueEnabled(); ok {
		return false
	}
	if p.GpsndSummaryEnabled() || p.ConfirmEnabled() {
		return false
	}
	_, _, brcv := p.BrcvEnabled()
	return !brcv
}

// ConfirmedLabels returns the confirmed prefix of Order (the paper's
// order-derived confirm sequence for this processor's own summary).
func (p *Proc) ConfirmedLabels() []types.Label {
	n := p.NextConfirm - 1
	if n > len(p.Order) {
		n = len(p.Order)
	}
	return p.Order[:n]
}

// StateSummary returns the summary whose components are the current local
// state (the x of allstate clause 1), without changing status.
func (p *Proc) StateSummary() *Summary {
	return &Summary{Con: p.Content, Ord: p.Order, Next: p.NextConfirm, High: p.HighPrimary}
}
