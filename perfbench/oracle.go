package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// oracleJSON holds the known answer of every search of every workload.
//
//go:embed oracle.json
var oracleJSON []byte

// expect is the known answer of one search. A search with Bug set must
// report a first bug of exactly that kind and preemption count; any other
// search must report no bug and complete BoundCompleted. The counts, when
// non-zero, must match exactly.
type expect struct {
	Bug            *foundBug `json:"bug,omitempty"`
	BoundCompleted *int      `json:"bound_completed,omitempty"`
	Executions     int       `json:"executions,omitempty"`
	States         int       `json:"states,omitempty"`
	Classes        int       `json:"classes,omitempty"`
	// CumExecutionsBound2 is the cumulative execution count at the end of
	// bound 2.
	CumExecutionsBound2 int `json:"cum_executions_bound2,omitempty"`
}

// oracle maps workload name to search name to known answer.
type oracle struct {
	Doc       []string                     `json:"doc"`
	Workloads map[string]map[string]expect `json:"workloads"`
}

// loadOracle parses the embedded answer file.
func loadOracle() (*oracle, error) {
	var o oracle
	if err := json.Unmarshal(oracleJSON, &o); err != nil {
		return nil, fmt.Errorf("parse oracle.json: %w", err)
	}
	return &o, nil
}

// check compares one search outcome with its known answer and returns a
// description of every mismatch (none when the verdict is right).
func (o *oracle) check(workload string, out outcome) []string {
	e, ok := o.Workloads[workload][out.search]
	if !ok {
		return []string{fmt.Sprintf("%s/%s: no known answer", workload, out.search)}
	}
	var bad []string
	fail := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf("%s/%s: ", workload, out.search)+fmt.Sprintf(format, args...))
	}
	switch {
	case e.Bug != nil && out.bug == nil:
		fail("no bug found, want %s at %d preemptions", e.Bug.Kind, e.Bug.Preemptions)
	case e.Bug != nil && *out.bug != *e.Bug:
		fail("found %s at %d preemptions, want %s at %d", out.bug.Kind, out.bug.Preemptions, e.Bug.Kind, e.Bug.Preemptions)
	case e.Bug == nil && out.bug != nil:
		fail("found %s at %d preemptions in a correct program", out.bug.Kind, out.bug.Preemptions)
	}
	if e.BoundCompleted != nil && out.boundCompleted != *e.BoundCompleted {
		fail("completed bound %d, want %d", out.boundCompleted, *e.BoundCompleted)
	}
	counts := []struct {
		name      string
		got, want int
	}{
		{"executions", out.executions, e.Executions},
		{"states", out.states, e.States},
		{"classes", out.classes, e.Classes},
		{"cumulative executions at bound 2", out.cumAtBound2, e.CumExecutionsBound2},
	}
	for _, c := range counts {
		if c.want != 0 && c.got != c.want {
			fail("%s %d, want %d", c.name, c.got, c.want)
		}
	}
	return bad
}
