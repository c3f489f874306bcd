package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/rsm"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/types"
)

const (
	// kvVirtualPerWall sizes sim-kv: virtual seconds simulated per wall
	// second asked for, so that the history reaches ≈150k deliveries
	// summed over nodes in a 10-second run, where costs that grow with
	// history dominate.
	kvVirtualPerWall = 3
	kvKeys           = 1024
	kvZipfS          = 1.1
	kvReadFrac       = 0.2
	// kvWindow is the span of submissions one rsm.AtomicChecker covers;
	// its real-time check is quadratic in the operations it holds.
	kvWindow = time.Second
)

// kvRun is one sim-kv system: a simulated cluster, the replicated memory
// on it, and the atomic checkers its operations go through.
type kvRun struct {
	load     *simLoad
	mem      *rsm.Memory
	checkers []*rsm.AtomicChecker
	// byNonce maps each node's rsm nonce (1-based) to the operation index.
	byNonce [simN][]int
}

func newKVRun(cfg runConfig, reg *obs.Registry) (*kvRun, error) {
	c := stack.NewCluster(simOptions(cfg.seed, reg))
	mem := rsm.New(c)
	mem.SetWorkers(runtime.NumCPU())
	kv := &kvRun{mem: mem}
	kv.load = newSimLoad(c, cfg.seed, cfg.tr, kv.identify)
	kv.submit(0, "w", "probe", false)
	if err := awaitDelivered(c, 1, drainLimit); err != nil {
		return nil, err
	}
	return kv, nil
}

func (kv *kvRun) identify(d stack.Delivery) (int, error) {
	op, err := rsm.DecodeOp(d.Value)
	if err != nil {
		return -1, err
	}
	ns := kv.byNonce[d.From]
	if op.Nonce < 1 || op.Nonce > len(ns) {
		return -1, fmt.Errorf("nonce %d from %v was never submitted", op.Nonce, d.From)
	}
	idx := ns[op.Nonce-1]
	if rec := &kv.load.ops[idx]; rec.kind != op.Kind || rec.key != op.Key {
		return -1, fmt.Errorf("op %d submitted as %s(%s), delivered as %s(%s)", idx, rec.kind, rec.key, op.Kind, op.Key)
	}
	return idx, nil
}

// submit issues one checked operation at p through the atomic checker of
// the current window.
func (kv *kvRun) submit(p types.ProcID, kind, key string, measured bool) {
	l := kv.load
	w := int(time.Duration(l.c.Sim.Now()) / kvWindow)
	for len(kv.checkers) <= w {
		kv.checkers = append(kv.checkers, rsm.NewAtomicChecker(kv.mem))
	}
	ac := kv.checkers[w]
	idx := l.add(p, measured)
	l.ops[idx].kind, l.ops[idx].key = kind, key
	kv.byNonce[p] = append(kv.byNonce[p], idx)
	if kind == "w" {
		l.timed(func() { ac.Write(p, key, "v"+strconv.Itoa(idx)) })
	} else {
		l.timed(func() { ac.Read(p, key) })
	}
}

// startLoad arms the open loop until end: 80% writes and 20% atomic
// reads, keys drawn Zipf(1.1) over 1024, round-robin across the nodes.
func (kv *kvRun) startLoad(seed int64, end sim.Time) {
	l := kv.load
	rng := rand.New(rand.NewSource(seed ^ 0x6b76))
	zipf := rand.NewZipf(rng, kvZipfS, 1, kvKeys-1)
	l.openLoop(end, func() {
		p, _ := l.nextNode(func(types.ProcID) bool { return true })
		key := "k" + strconv.FormatUint(zipf.Uint64(), 10)
		kind := "w"
		if rng.Float64() < kvReadFrac {
			kind = "r"
		}
		if l.full(p) {
			l.refused++
			return
		}
		kv.submit(p, kind, key, true)
	})
}

// verify runs every correctness check of a finished sim-kv pass: replica
// coherence, the atomic (linearizability) check of each window, no apply
// halts, consistent delivery bookkeeping, and the checkers' completion
// counts agreeing with the benchmark's own.
func (kv *kvRun) verify() error {
	if kv.load.firstErr != nil {
		return kv.load.firstErr
	}
	if err := kv.mem.CheckCoherence(); err != nil {
		return err
	}
	for _, p := range kv.load.c.Procs.Members() {
		if err := kv.mem.Err(p); err != nil {
			return err
		}
	}
	completed := 0
	for i, ac := range kv.checkers {
		if err := ac.Check(); err != nil {
			return fmt.Errorf("atomic check of window %d: %w", i, err)
		}
		completed += ac.Completed()
	}
	done := 0
	for i := range kv.load.ops {
		if kv.load.ops[i].done {
			done++
		}
	}
	if completed != done {
		return fmt.Errorf("atomic checkers saw %d completed operations, the delivery observer %d", completed, done)
	}
	return nil
}

func runSimKV(cfg runConfig) (*result, error) {
	var kv *kvRun
	span := time.Duration(cfg.seconds*kvVirtualPerWall) * time.Second
	res, err := runSim(cfg, span, func(reg *obs.Registry) (*simLoad, func(sim.Time), error) {
		var err error
		if kv, err = newKVRun(cfg, reg); err != nil {
			return nil, nil, err
		}
		return kv.load, func(end sim.Time) { kv.startLoad(cfg.seed, end) }, nil
	})
	if err != nil {
		return nil, fmt.Errorf("sim-kv: %w", err)
	}
	if cfg.tr != nil {
		zero(res, "outage_p50_ms", "rejoin_p50_ms")
	}
	t0 := time.Now()
	res.checkErr = kv.verify()
	res.info["check_wall_s"] = time.Since(t0).Seconds()
	return res, nil
}
