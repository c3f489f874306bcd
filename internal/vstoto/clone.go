package vstoto

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/types"
)

// Clone returns a deep copy of the processor state. Summaries referenced
// from GotState are shared (immutable once sent).
func (p *Proc) Clone() *Proc {
	out := &Proc{
		id:                   p.id,
		qs:                   p.qs,
		Current:              p.Current,
		NextSeqno:            p.NextSeqno,
		Buffer:               append([]types.Label(nil), p.Buffer...),
		Order:                append([]types.Label(nil), p.Order...),
		NextConfirm:          p.NextConfirm,
		NextReport:           p.NextReport,
		HighPrimary:          p.HighPrimary,
		Status:               p.Status,
		Delay:                append([]types.Value(nil), p.Delay...),
		Content:              make(map[types.Label]types.Value, len(p.Content)),
		GotState:             make(GotState, len(p.GotState)),
		SafeExch:             make(map[types.ProcID]bool, len(p.SafeExch)),
		SafeLabels:           make(map[types.Label]bool, len(p.SafeLabels)),
		fullLen:              p.fullLen,
		TrackHistory:         p.TrackHistory,
		LiteralFigure10Label: p.LiteralFigure10Label,
		Established:          make(map[types.ViewID]bool, len(p.Established)),
		BuildOrder:           make(map[types.ViewID][]types.Label, len(p.BuildOrder)),
		mLabels:              p.mLabels,
		mConfirms:            p.mConfirms,
		mSummaries:           p.mSummaries,
		mEstablished:         p.mEstablished,
		gOrderLen:            p.gOrderLen,
	}
	for k, v := range p.Content {
		out.Content[k] = v
	}
	for k, v := range p.GotState {
		out.GotState[k] = v
	}
	for k, v := range p.SafeExch {
		out.SafeExch[k] = v
	}
	for k, v := range p.SafeLabels {
		out.SafeLabels[k] = v
	}
	for k, v := range p.Established {
		out.Established[k] = v
	}
	for k, v := range p.BuildOrder {
		out.BuildOrder[k] = append([]types.Label(nil), v...)
	}
	return out
}

// Fingerprint returns a canonical string identifying the processor state,
// for the bounded exhaustive explorer's visited set. History variables are
// excluded: they are functions of the reachable state and only consumed by
// the invariant checker. So is fullLen: it is len(fullorder(gotstate))
// once the view is established as primary and 0 before, a function of
// the fingerprinted current view, status and gotstate, so including it
// could never split two states the rest of the fingerprint merges.
func (p *Proc) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "p%d{cur=%v#%v seq=%d st=%v conf=%d rep=%d high=%v",
		int(p.id), p.Current.ID, p.Current.Set, p.NextSeqno, p.Status,
		p.NextConfirm, p.NextReport, p.HighPrimary)
	fmt.Fprintf(&b, " buf=%v ord=%v delay=%v", p.Buffer, p.Order, p.Delay)
	b.WriteString(" con={")
	labels := make([]types.Label, 0, len(p.Content))
	for l := range p.Content {
		labels = append(labels, l)
	}
	types.SortLabels(labels)
	for _, l := range labels {
		fmt.Fprintf(&b, "%v=%q;", l, string(p.Content[l]))
	}
	b.WriteString("} got={")
	gots := make([]types.ProcID, 0, len(p.GotState))
	for q := range p.GotState {
		gots = append(gots, q)
	}
	sort.Slice(gots, func(i, j int) bool { return gots[i] < gots[j] })
	for _, q := range gots {
		fmt.Fprintf(&b, "%v=%v;", q, p.GotState[q])
	}
	b.WriteString("} safeex={")
	exs := make([]types.ProcID, 0, len(p.SafeExch))
	for q, ok := range p.SafeExch {
		if ok {
			exs = append(exs, q)
		}
	}
	sort.Slice(exs, func(i, j int) bool { return exs[i] < exs[j] })
	fmt.Fprintf(&b, "%v", exs)
	b.WriteString("} safelab={")
	sls := make([]types.Label, 0, len(p.SafeLabels))
	for l, ok := range p.SafeLabels {
		if ok {
			sls = append(sls, l)
		}
	}
	types.SortLabels(sls)
	fmt.Fprintf(&b, "%v}}", sls)
	return b.String()
}
