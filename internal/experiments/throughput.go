package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/types"
)

// E16 is the delivery-pipelining ablation on the batched hot path. Every
// run uses the one WAL configuration the service ships (group commit,
// eager token rounds, same-instant network coalescing); only the
// delivery-record pipeline depth varies. A single-origin burst makes the
// check exact — with one submitter the total order is the submission
// order in every run, so the pipelined run must deliver the
// byte-identical sequence at every node, just faster.
//
// At depth 1 a node serializes one λ per delivered value (write record,
// wait for durability, release, repeat), so at λ = 5ms a 400-value burst
// costs ≥ 2 virtual seconds in storage stalls alone. At the default depth
// 64 consecutive delivery records ride one covering write, so throughput
// must improve by at least a 3× floor while the delivered sequences stay
// digest-identical.
func E16(seed int64) *Table {
	t := &Table{
		ID:    "E16",
		Title: "pipelined delivery on the batched WAL: throughput vs pipeline depth",
		Claim: "delivery pipelining (depth 64 vs 1) yields >=3x delivered msgs/sec at lambda=5ms with a byte-identical total order",
		Columns: []string{"pipeline depth", "values", "virtual elapsed", "deliveries/sec",
			"order digest"},
	}

	const (
		n      = 3
		values = 400
		lambda = 5 * time.Millisecond
	)
	delta := time.Millisecond
	origin := types.ProcID(0)

	type outcome struct {
		elapsed time.Duration
		rate    float64
		// digests[p] fingerprints node p's delivered (From, Value)
		// sequence; all must agree within a run and across runs.
		digests []string
	}

	run := func(depth int) outcome {
		c := stack.NewCluster(stack.Options{
			Seed: seed, N: n, Delta: delta, StorageLatency: lambda, DeliverPipeline: depth,
		})
		if err := c.Sim.RunFor(30 * time.Millisecond); err != nil {
			panic(err)
		}
		// Single-origin burst: all values enter at one node, at one
		// instant, so the total order is pinned to submission order and
		// the two runs are comparable value-for-value.
		start := c.Sim.Now()
		for i := 0; i < values; i++ {
			c.Bcast(origin, types.Value(fmt.Sprintf("v%d", i)))
		}
		for {
			done := true
			for p := 0; p < n; p++ {
				if len(c.Deliveries(types.ProcID(p))) < values {
					done = false
				}
			}
			if done {
				break
			}
			if err := c.Sim.RunFor(10 * time.Millisecond); err != nil {
				panic(err)
			}
			if c.Sim.Now() > sim.Time(300*time.Second) {
				panic("E16: burst never fully delivered")
			}
		}
		elapsed := time.Duration(c.Sim.Now() - start)
		digests := make([]string, n)
		for p := 0; p < n; p++ {
			h := sha256.New()
			for _, d := range c.Deliveries(types.ProcID(p)) {
				fmt.Fprintf(h, "%d:%s\n", d.From, d.Value)
			}
			digests[p] = hex.EncodeToString(h.Sum(nil))
		}
		return outcome{
			elapsed: elapsed,
			rate:    float64(values) / elapsed.Seconds(),
			digests: digests,
		}
	}

	base := run(1)
	fast := run(64)
	for _, r := range []struct {
		depth int
		o     outcome
	}{{1, base}, {64, fast}} {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.depth), fmt.Sprintf("%d", values),
			r.o.elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", r.o.rate),
			r.o.digests[0][:16],
		})
	}

	for _, o := range []outcome{base, fast} {
		for p := 1; p < n; p++ {
			if o.digests[p] != o.digests[0] {
				t.Failures = append(t.Failures, fmt.Sprintf(
					"E16: node %d delivered a different order than node 0 (%s vs %s)",
					p, o.digests[p][:16], o.digests[0][:16]))
			}
		}
	}
	if base.digests[0] != fast.digests[0] {
		t.Failures = append(t.Failures, fmt.Sprintf(
			"E16: pipelined run reordered deliveries (digest %s vs depth-1 %s)",
			fast.digests[0][:16], base.digests[0][:16]))
	}
	speedup := fast.rate / base.rate
	if speedup < 3 {
		t.Failures = append(t.Failures, fmt.Sprintf(
			"E16: depth-64 throughput only %.2fx depth 1 (floor 3x)", speedup))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("pipeline depth 64 delivers %.1fx depth 1's msgs/sec at lambda=%v", speedup, lambda),
		"identical digests at every node in both runs: pipelining changed only the timing, not the order")
	return t
}
