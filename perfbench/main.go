// Command perfbench is the repository's end-to-end benchmark of the TO
// service. One process runs one named workload, checks every output for
// correctness, and prints its metrics as the last line of standard output:
//
//	perfbench --workload sim-kv --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run is untraced and reports the end-to-end metrics
// named in BENCHMARK.json; with --trace 1 it first repeats the untraced
// measurement, then runs the workload again with the obs registry, CPU and
// allocation profiles and the benchmark's own spans attached, and reports
// the per-layer metrics. Metric names and units come from BENCHMARK.json in
// the working directory, so the benchmark cannot drift from its contract.
//
// The benchmark reaches the program only through its public entry points
// (live.StartEngine/DialClient, stack.NewCluster, rsm.New, the failure
// oracle and Sim.Run) and counters the program already keeps.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// workloads maps each workload name to its runner. A runner measures for
// roughly the given wall seconds; traced asks it to attach every layer's
// instrumentation and to fill the per-layer metrics.
var workloads = map[string]func(cfg runConfig) (*result, error){
	"live-steady": runLiveSteady,
	"sim-kv":      runSimKV,
	"sim-churn":   runSimChurn,
}

// runConfig is what every workload runner receives.
type runConfig struct {
	seed    int64
	seconds int
	tr      *tracer // nil on untraced passes
}

// result is one workload pass: operation counts, the correctness verdict
// and the metrics by name.
type result struct {
	attempted int
	failed    int
	// checkErr is the first correctness check that failed (nil when every
	// check passed). A failed check fails the run.
	checkErr error
	metrics  map[string]float64
	// info carries figures printed beside the result but not part of the
	// contract's metric set.
	info map[string]any
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, info: map[string]any{}}
}

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads the contract from the working directory, the root of the
// checkout.
func loadSpec() (*benchmarkSpec, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	return &s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: live-steady, sim-kv or sim-churn")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Int("seconds", 10, "approximate wall seconds one measured pass takes")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
		commit   = flag.String("commit", "unknown", "source revision, recorded in the output")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *commit); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, traced bool, commit string) error {
	runner, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}

	cfg := runConfig{seed: seed, seconds: seconds}
	var res *result
	if traced {
		res, err = runTraced(runner, cfg, workload)
	} else {
		res, err = runner(cfg)
	}
	if err != nil {
		return err
	}
	if res.checkErr != nil {
		// Outputs that fail a check vouch for no operation of the run.
		res.info["failed_before_check"] = res.failed
		res.failed = res.attempted
	}
	res.metrics["failed_frac"] = ratio(float64(res.failed), float64(res.attempted))

	out := verdict{
		Correct:   res.checkErr == nil,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue, len(want)),
	}
	var missing []string
	for _, m := range want {
		v, ok := res.metrics[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("workload %s produced no value for %v", workload, missing)
	}
	if out.Attempted < 1 {
		return fmt.Errorf("workload %s attempted no operations", workload)
	}

	meta := map[string]any{
		"workload":   workload,
		"seed":       seed,
		"seconds":    seconds,
		"traced":     traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
	}
	if res.checkErr != nil {
		res.info["check_error"] = res.checkErr.Error()
	}
	if err := printLine(map[string]any{"meta": meta, "info": res.info}); err != nil {
		return err
	}
	return printLine(out)
}

func printLine(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encode output: %w", err)
	}
	fmt.Println(string(b))
	return nil
}

// runTraced measures the workload untraced, then traced, and reports the
// traced pass's per-layer metrics plus the overhead the tracing added to
// CPU time per delivery.
func runTraced(runner func(runConfig) (*result, error), cfg runConfig, workload string) (*result, error) {
	base, err := runner(cfg)
	if err != nil {
		return nil, err
	}
	tcfg := cfg
	tcfg.tr = &tracer{}
	res, err := runner(tcfg)
	if err != nil {
		tcfg.tr.stopProfiles()
		return nil, err
	}
	if err := tcfg.tr.foldProfiles(res); err != nil {
		return nil, err
	}
	if err := tcfg.tr.writeSpans(workload, cfg.seed); err != nil {
		return nil, err
	}
	res.metrics["trace.overhead_frac"] = res.metrics["cpu_ms_per_1k_deliveries"]/base.metrics["cpu_ms_per_1k_deliveries"] - 1
	res.attempted += base.attempted
	res.failed += base.failed
	if res.checkErr == nil {
		res.checkErr = base.checkErr
	}
	return res, nil
}

// measuredPhase brackets the part of a pass whose CPU, wall time and
// deliveries the throughput metrics divide.
type measuredPhase struct {
	wall0 time.Time
	cpu0  time.Duration
	wall  time.Duration
	cpu   time.Duration
}

// startPhase collects garbage first, so that set-up's garbage is not
// collected inside the measured phase.
func startPhase() measuredPhase {
	runtime.GC()
	return measuredPhase{wall0: time.Now(), cpu0: processCPU()}
}

func (m *measuredPhase) stop() {
	m.wall = time.Since(m.wall0)
	m.cpu = processCPU() - m.cpu0
}

// throughput fills the metrics every workload shares: deliveries per wall
// second, CPU per thousand deliveries and the live heap at the end of the
// measured phase.
func (m *measuredPhase) throughput(res *result, deliveries int) {
	res.metrics["deliveries_per_s"] = float64(deliveries) / m.wall.Seconds()
	res.metrics["cpu_ms_per_1k_deliveries"] = ms(m.cpu) / (float64(deliveries) / 1000)
	res.info["measured_wall_s"] = m.wall.Seconds()
	res.info["deliveries"] = deliveries
	res.metrics["heap_mb_end"] = liveHeapMB()
}
