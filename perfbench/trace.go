package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/obs"
)

// modules are the program's packages whose self CPU and allocation the
// traced run reports, plus buckets of its own: runtime (samples with no
// repository frame outside garbage collection), gc (the collector's
// background and assist work), bench (the benchmark's own code) and other
// (any other repository package).
var modules = []string{
	"live", "transport", "codec", "vsimpl", "membership", "vstoto",
	"recovery", "storage", "stack", "rsm", "sweep", "sim", "net",
	"failures", "props", "obs", "types", "runtime", "gc", "bench", "other",
}

// gcRoots are the runtime functions whose samples are garbage collection.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// tracer holds the traced pass's spans in memory, and brackets and folds
// its CPU and allocation profiles.
type tracer struct {
	spans  []spanRec
	events []eventRec

	cpu        bytes.Buffer
	cpuOn      bool
	allocs0    []byte
	allocs1    []byte
	deliveries int
}

// spanRec is one submission's submit span: a request id, the node it
// entered at, and its wall and virtual start and end (nanoseconds; virtual
// is the engine clock on the live workload).
type spanRec struct {
	req          int
	node         int
	wall0, wall1 int64
	virt0, virt1 int64
}

// eventRec is one node delivering a submission: a child event of the
// request's span.
type eventRec struct {
	req, node  int
	wall, virt int64
}

// reset drops spans recorded by a setup that was torn down.
func (t *tracer) reset() {
	t.spans, t.events = t.spans[:0], t.events[:0]
}

func (t *tracer) span(req, node int, wall0, wall1, virt0, virt1 int64) {
	t.spans = append(t.spans, spanRec{req, node, wall0, wall1, virt0, virt1})
}

func (t *tracer) event(req, node int, wall, virt int64) {
	t.events = append(t.events, eventRec{req, node, wall, virt})
}

// writeSpans writes the spans and their delivery events once, at exit, as
// tab-separated lines under .bench_build/.
func (t *tracer) writeSpans(workload string, seed int64) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s.tsv", workload)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# workload %s seed %d: submit req node wall0_ns wall1_ns virt0_ns virt1_ns | deliver req node wall_ns virt_ns\n", workload, seed)
	for _, s := range t.spans {
		fmt.Fprintf(w, "submit\t%d\t%d\t%d\t%d\t%d\t%d\n", s.req, s.node, s.wall0, s.wall1, s.virt0, s.virt1)
	}
	for _, e := range t.events {
		fmt.Fprintf(w, "deliver\t%d\t%d\t%d\t%d\n", e.req, e.node, e.wall, e.virt)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// markProfiles starts the CPU profile and snapshots the cumulative
// allocation profile at the start of the measured phase.
func (t *tracer) markProfiles() {
	t.allocs0 = allocProfile()
	t.cpu.Reset()
	t.cpuOn = pprof.StartCPUProfile(&t.cpu) == nil
}

// captureProfiles ends the measured phase's profiles.
func (t *tracer) captureProfiles(deliveries int) {
	t.stopProfiles()
	t.allocs1 = allocProfile()
	t.deliveries = deliveries
}

func (t *tracer) stopProfiles() {
	if t.cpuOn {
		pprof.StopCPUProfile()
		t.cpuOn = false
	}
}

func allocProfile() []byte {
	runtime.GC() // the allocation profile is as of the last collection
	var b bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&b, 0); err != nil {
		return nil
	}
	return b.Bytes()
}

// moduleOf names the module a sample belongs to: gc when any frame is the
// collector's, else the innermost repository package, else bench for the
// benchmark's own code, else runtime.
func moduleOf(stack []string, gcSplit bool) string {
	if gcSplit {
		for _, f := range stack {
			if gcRoots[f] {
				return "gc"
			}
		}
	}
	for _, f := range stack {
		if rest, ok := strings.CutPrefix(f, "repro/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
	}
	return "runtime"
}

// fold sums one sample value per module.
func fold(p *profile, value string, gcSplit bool) (map[string]float64, float64, error) {
	vi, err := p.valueIndex(value)
	if err != nil {
		return nil, 0, err
	}
	known := map[string]bool{}
	for _, m := range modules {
		known[m] = true
	}
	out := map[string]float64{}
	total := 0.0
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		v := float64(s.values[vi])
		m := moduleOf(p.stack(s), gcSplit)
		if !known[m] {
			m = "other"
		}
		out[m] += v
		total += v
	}
	return out, total, nil
}

// foldProfiles reports each module's self CPU and allocated bytes per
// thousand deliveries of the measured phase, and the collector's share of
// CPU.
func (t *tracer) foldProfiles(res *result) error {
	cpuProf, err := parseProfile(t.cpu.Bytes())
	if err != nil {
		return fmt.Errorf("CPU profile: %w", err)
	}
	cpu, total, err := fold(cpuProf, "cpu", true)
	if err != nil {
		return fmt.Errorf("CPU profile: %w", err)
	}
	var allocs [2]map[string]float64
	for i, data := range [][]byte{t.allocs0, t.allocs1} {
		p, err := parseProfile(data)
		if err == nil {
			allocs[i], _, err = fold(p, "alloc_space", false)
		}
		if err != nil {
			return fmt.Errorf("allocation profile: %w", err)
		}
	}
	per1k := float64(t.deliveries) / 1000
	for _, m := range modules {
		res.metrics[m+".self_cpu_ms_per_1k"] = ratio(cpu[m]/1e6, per1k)
		res.metrics[m+".alloc_kb_per_1k"] = ratio((allocs[1][m]-allocs[0][m])/1024, per1k)
	}
	res.metrics["gc.cpu_frac"] = ratio(cpu["gc"], total)
	res.info["profile_cpu_ms"] = total / 1e6
	return nil
}

// obsDelta reads counters, gauges and histograms from a snapshot, counters
// relative to an earlier one (so setup is excluded where it can be).
type obsDelta struct {
	now, then *obs.Snapshot
}

func (o obsDelta) counter(name string) float64 {
	v := float64(o.now.Counters[name])
	if o.then != nil {
		v -= float64(o.then.Counters[name])
	}
	return v
}

func (o obsDelta) gauge(name string) float64 { return float64(o.now.Gauges[name]) }

func (o obsDelta) hist(name string) obs.HistogramSummary { return o.now.Histograms[name] }

func (o obsDelta) histCount(name string) float64 {
	v := float64(o.now.Histograms[name].Count)
	if o.then != nil {
		v -= float64(o.then.Histograms[name].Count)
	}
	return v
}

// layerObs maps the program's own counters onto the per-layer metric
// names. Counters cover the measured phase; histogram quantiles and
// high-water gauges cover the whole pass, setup included.
func layerObs(res *result, o obsDelta, delivered int) {
	d := float64(delivered)
	nsToMs := func(ns int64) float64 { return float64(ns) / 1e6 }
	m := res.metrics
	m["vsimpl.token_launches_per_1k"] = ratio(o.counter("vs.token_launches")*1000, d)
	m["vsimpl.token_hops_per_delivery"] = ratio(o.counter("vs.token_hops"), d)
	m["vsimpl.token_round_p50_ms"] = nsToMs(o.hist("vs.token_round").P50NS)
	m["vsimpl.token_timeouts"] = o.counter("vs.token_timeouts")
	m["vsimpl.max_token_entries"] = o.gauge("vs.max_token_entries")

	m["membership.formed"] = o.counter("mb.formed")
	m["membership.initiated_per_install"] = ratio(o.counter("mb.initiated"), o.counter("mb.formed"))
	m["membership.formation_p50_ms"] = nsToMs(o.hist("mb.formation_latency").P50NS)

	m["vstoto.label_to_confirm_p50_ms"] = nsToMs(o.hist("vstoto.label_to_confirm").P50NS)
	m["vstoto.confirm_to_release_p50_ms"] = nsToMs(o.hist("vstoto.confirm_to_release").P50NS)
	m["vstoto.summaries"] = o.counter("vstoto.summaries")
	m["vstoto.establishments"] = o.counter("vstoto.establishments")
	m["vstoto.order_len_end"] = o.gauge("vstoto.order_len")

	m["recovery.records_per_batch"] = ratio(o.counter("wal.batch_records"), o.counter("wal.batches"))
	m["recovery.wal_bytes_per_delivery"] = ratio(o.counter("wal.bytes"), d)
	m["recovery.replay_records_per_rejoin"] = ratio(o.counter("recovery.replay_records"), o.counter("stack.recoveries"))
	m["recovery.replay_bytes_per_rejoin"] = ratio(o.counter("recovery.replay_bytes"), o.counter("stack.recoveries"))
	m["storage.writes_per_delivery"] = ratio(o.counter("storage.writes"), d)
	m["storage.write_latency_p50_ms"] = nsToMs(o.hist("storage.write_latency").P50NS)
	m["storage.max_queue"] = o.gauge("storage.max_queue")

	m["stack.pending_max"] = o.gauge("stack.pending_bcasts")
	m["stack.install_gate_wait_p50_ms"] = nsToMs(o.hist("stack.install_gate_wait").P50NS)

	m["rsm.antichain_mean"] = ratio(o.counter("rsm.apply_ops"), o.histCount("rsm.antichain_size"))
	m["rsm.apply_batch_wall_p50_us"] = float64(o.hist("rsm.apply_batch_wall_ns").P50NS) / 1e3
	m["rsm.apply_utilization_pct"] = ratio(100*o.counter("rsm.apply_parallel_ops"), o.counter("rsm.apply_ops"))

	m["transport.msgs_per_delivery"] = ratio(o.counter("transport.sent"), d)
	m["transport.writes_per_delivery"] = ratio(o.histCount("transport.write_latency"), d)
	m["transport.bytes_per_delivery"] = ratio(o.counter("transport.bytes"), d)
	m["transport.write_latency_p99_us"] = float64(o.hist("transport.write_latency").P99NS) / 1e3
	m["transport.queue_depth_max"] = o.gauge("transport.queue_depth")
}
