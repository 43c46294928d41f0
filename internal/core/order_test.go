package core_test

// The 1-worker drain order is what a StopOnFirstBug search's time to first
// bug depends on, and what byte-identical resume replays. This test pins it
// search by search: one FNV-64a hash over every execution's decision
// sequence in execution order, plus the execution count and the first bug's
// execution index and preemption count. Regenerate the golden file with
//
//	go test ./internal/core -run TestDrainOrderGolden -update-order
//
// only when a change to the drain order is intended.

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
	"time"

	"icb/internal/core"
	"icb/internal/progs"
	"icb/internal/progs/ape"
	"icb/internal/progs/bluetooth"
	"icb/internal/progs/dryad"
	"icb/internal/progs/fsmodel"
	"icb/internal/progs/wsq"
	"icb/internal/sched"
)

var updateOrder = flag.Bool("update-order", false, "rewrite testdata/drain_order.json from the current drain order")

const drainOrderGolden = "testdata/drain_order.json"

// orderRecord is one search's pinned drain order.
type orderRecord struct {
	Hash        string `json:"hash"`
	Executions  int    `json:"executions"`
	BugExec     int    `json:"bug_execution,omitempty"`
	Preemptions int    `json:"bug_preemptions,omitempty"`
}

// orderHasher hashes each execution's decisions, in execution order.
type orderHasher struct {
	h    hash.Hash64
	next int
	err  error
}

func (o *orderHasher) ObserveOutcome(execution int, out sched.Outcome) {
	o.next++
	if execution != o.next && o.err == nil {
		o.err = fmt.Errorf("execution %d observed in position %d", execution, o.next)
	}
	o.h.Write([]byte(out.Decisions.String()))
	o.h.Write([]byte{'\n'})
}

// orderSearch is one pinned search.
type orderSearch struct {
	name  string
	prog  sched.Program
	strat core.Strategy
	opt   core.Options
}

// sweepCap caps the correct-program searches: Dryad's bound-2 space runs
// past 200k executions, and a prefix of the order pins it just as well.
const sweepCap = 10000

func orderSearches() []orderSearch {
	benches := []*progs.Benchmark{bluetooth.Benchmark(), fsmodel.Benchmark(), wsq.Benchmark(), ape.Benchmark(), dryad.Benchmark()}
	var out []orderSearch
	for _, b := range benches {
		for _, bug := range b.Bugs {
			out = append(out, orderSearch{
				name:  fmt.Sprintf("hunt/%s/%s", b.Name, bug.ID),
				prog:  bug.Program,
				strat: core.ICB{},
				opt:   core.Options{MaxPreemptions: 3, CheckRaces: true, StopOnFirstBug: true},
			})
		}
	}
	for _, b := range benches {
		for _, v := range []struct {
			name string
			opt  core.Options
		}{
			{"plain", core.Options{MaxPreemptions: 2, CheckRaces: true, MaxExecutions: sweepCap}},
			{"cached", core.Options{MaxPreemptions: 2, CheckRaces: true, StateCache: true, MaxExecutions: sweepCap}},
			{"bpor", core.Options{MaxPreemptions: 2, CheckRaces: true, BPOR: true, MaxExecutions: sweepCap}},
		} {
			out = append(out, orderSearch{
				name:  fmt.Sprintf("sweep/%s/%s", b.Name, v.name),
				prog:  b.Correct,
				strat: core.ICB{},
				opt:   v.opt,
			})
		}
	}
	out = append(out, orderSearch{
		name:  "csb/Dryad/alert-window",
		prog:  dryad.Program(dryad.AlertWindow, dryad.Params{}),
		strat: core.CSB{},
		opt:   core.Options{MaxPreemptions: 6, StopOnFirstBug: true},
	})
	return out
}

func TestDrainOrderGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every pinned search in full (~1 min)")
	}
	var want map[string]orderRecord
	if !*updateOrder {
		data, err := os.ReadFile(drainOrderGolden)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := make(map[string]orderRecord)
	for _, s := range orderSearches() {
		oh := &orderHasher{h: fnv.New64a()}
		opt := s.opt
		opt.TraceObserver = oh
		t0 := time.Now()
		res := core.Explore(s.prog, s.strat, opt)
		t.Logf("%s: %d executions in %v", s.name, res.Executions, time.Since(t0).Round(time.Millisecond))
		if oh.err != nil {
			t.Fatalf("%s: %v", s.name, oh.err)
		}
		rec := orderRecord{Hash: fmt.Sprintf("%016x", oh.h.Sum64()), Executions: res.Executions}
		if b := res.FirstBug(); b != nil {
			rec.BugExec, rec.Preemptions = b.Execution, b.Preemptions
		}
		got[s.name] = rec
		if *updateOrder {
			continue
		}
		if w, ok := want[s.name]; !ok {
			t.Errorf("%s: no golden record", s.name)
		} else if rec != w {
			t.Errorf("%s: drain order %+v, golden %+v", s.name, rec, w)
		}
	}
	if *updateOrder {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(drainOrderGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(drainOrderGolden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d searches, test runs %d", len(want), len(got))
	}
}
