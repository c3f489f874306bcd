package vstoto

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ioa"
	"repro/internal/spec/tomachine"
	"repro/internal/spec/vsmachine"
	"repro/internal/types"
)

// buildSystem composes VS-machine with VStoTO_p for every p, plus the
// Section 6 derived-variable system view and a forward-simulation checker,
// exactly as in the definition of VStoTO-system.
func buildSystem(t *testing.T, seed int64, n int, p0Size int, churn float64) (*ioa.Executor, *System, *SimulationChecker) {
	t.Helper()
	return buildWrappedSystem(t, seed, n, p0Size, churn, nil)
}

// buildWrappedSystem is buildSystem with each VStoTO_p automaton passed
// through wrap (nil: used as is) before composition.
func buildWrappedSystem(t *testing.T, seed int64, n int, p0Size int, churn float64,
	wrap func(*Auto) ioa.Automaton) (*ioa.Executor, *System, *SimulationChecker) {
	t.Helper()
	procs := types.RangeProcSet(n)
	p0 := types.NewProcSet(procs.Members()[:p0Size]...)
	qs := types.Majorities{Universe: procs}

	vsAuto := vsmachine.NewAuto(procs, p0)
	components := []ioa.Automaton{vsAuto}
	procMap := make(map[types.ProcID]*Proc, n)
	for _, p := range procs.Members() {
		a := NewAuto(p, qs, p0)
		procMap[p] = a.P
		if wrap != nil {
			components = append(components, wrap(a))
		} else {
			components = append(components, a)
		}
	}
	exec := ioa.NewExecutor(seed, components...)
	vsAuto.Proposer = vsmachine.RandomViewProposer(vsAuto, exec.Rand(), churn)

	// The environment always offers a bcast; the executor picks uniformly
	// among it and all enabled actions, so load is continuous and the run
	// never quiesces before its step budget.
	var counter int
	exec.SetEnvironment(ioa.EnvironmentFunc(func(rng *rand.Rand) ioa.Action {
		counter++
		p := types.ProcID(rng.Intn(n))
		// Occasionally submit a duplicate value to exercise value-collision
		// handling in the checkers (labels, not values, are identities).
		if counter > 1 && rng.Intn(5) == 0 {
			return tomachine.Bcast{A: types.Value(fmt.Sprintf("v%d", rng.Intn(counter))), P: p}
		}
		return tomachine.Bcast{A: types.Value(fmt.Sprintf("v%d", counter)), P: p}
	}))
	exec.HideWhere(func(act ioa.Action) bool {
		switch act.(type) {
		case vsmachine.Gpsnd, vsmachine.Gprcv, vsmachine.Safe, vsmachine.Newview:
			return true
		}
		return false
	})

	sys := NewSystem(vsAuto.M, procMap, qs)
	sim := NewSimulationChecker(sys)
	steps := 0
	exec.OnStep(func(ev ioa.TraceEvent) error {
		if err := sys.CheckInvariants(); err != nil {
			return err
		}
		// The history-dependent (deep) lemmas are costlier; sampling every
		// few steps keeps the whole-suite runtime reasonable while the
		// explorer still checks them on every transition of its runs.
		steps++
		if steps%7 == 0 {
			if err := sys.CheckDeepInvariants(); err != nil {
				return err
			}
		}
		return sim.AfterStep(ev.Act)
	})
	return exec, sys, sim
}

// randomizedCases are the randomized checker's seeds and shapes.
var randomizedCases = []struct {
	seed  int64
	n     int
	p0    int
	churn float64
	steps int
}{
	{seed: 1, n: 3, p0: 3, churn: 0.02, steps: 2000},
	{seed: 2, n: 4, p0: 3, churn: 0.05, steps: 2000},
	{seed: 3, n: 5, p0: 5, churn: 0.10, steps: 1500},
	{seed: 4, n: 4, p0: 1, churn: 0.08, steps: 1500},
	{seed: 5, n: 2, p0: 2, churn: 0.15, steps: 1500},
}

// TestRandomizedSystemSafety runs randomized executions of VStoTO-system
// with continual view churn, checking the Section 6 invariants and the
// forward simulation to TO-machine after every single step. This is the
// executable counterpart of Theorem 6.26. Every processor also runs
// wrapped in shortcutAuto, which checks each establishment and each
// completing safe(x) against fullorder/knowncontent as Figure 10 defines
// them.
func TestRandomizedSystemSafety(t *testing.T) {
	var counts shortcutCounts
	for _, tc := range randomizedCases {
		tc := tc
		t.Run(fmt.Sprintf("seed%d_n%d", tc.seed, tc.n), func(t *testing.T) {
			exec, _, _ := buildWrappedSystem(t, tc.seed, tc.n, tc.p0, tc.churn, func(a *Auto) ioa.Automaton {
				return shortcutAuto{Auto: a, t: t, counts: &counts}
			})
			if err := exec.Run(tc.steps); err != nil {
				t.Fatalf("run failed: %v\ntrace tail:\n%v", err, ioa.FormatTrace(tail(exec.Trace(), 40)))
			}
		})
	}
	if counts.extra == 0 || counts.safe == 0 {
		t.Fatalf("establishment checks vacuous: %+v", counts)
	}
}

// TestSystemDeliversValues checks that in a churn-free execution values are
// actually confirmed and delivered to every client (liveness smoke test for
// the spec composition: the paper's conditional properties promise this
// under stability, and with no view changes the randomized scheduler must
// eventually drive messages through).
func TestSystemDeliversValues(t *testing.T) {
	exec, sys, _ := buildSystem(t, 42, 3, 3, 0 /* no churn */)
	if err := exec.Run(6000); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	var delivered int
	for _, ev := range exec.Trace() {
		if _, ok := ev.Act.(tomachine.Brcv); ok {
			delivered++
		}
	}
	if delivered == 0 {
		t.Fatalf("no values delivered in 6000 steps; trace:\n%v", ioa.FormatTrace(tail(exec.Trace(), 40)))
	}
	if conf, err := sys.AllConfirm(); err != nil || len(conf) == 0 {
		t.Fatalf("allconfirm = %v, err = %v; want nonempty", conf, err)
	}
}

func tail(events []ioa.TraceEvent, n int) []ioa.TraceEvent {
	if len(events) <= n {
		return events
	}
	return events[len(events)-n:]
}
