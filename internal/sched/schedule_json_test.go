package sched_test

import (
	"encoding/json"
	"testing"

	"icb/internal/sched"
)

// TestScheduleJSONRoundTrip pins the on-disk decision format of repro
// bundles: a schedule marshals to a JSON array of compact tokens and
// unmarshals back to the identical decision sequence.
func TestScheduleJSONRoundTrip(t *testing.T) {
	in, err := sched.ParseSchedule("t0 t2 d1 t0 d0 t17")
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if want := `["t0","t2","d1","t0","d0","t17"]`; string(js) != want {
		t.Fatalf("marshaled schedule = %s, want %s", js, want)
	}
	var out sched.Schedule
	if err := json.Unmarshal(js, &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != in.String() {
		t.Fatalf("round trip changed the schedule: %q -> %q", in, out)
	}
	// Absent and empty schedules keep encoding/json's slice forms, and a
	// lone decision its token.
	for _, c := range []struct {
		v    any
		want string
	}{{sched.Schedule(nil), `null`}, {sched.Schedule{}, `[]`}, {sched.DataDecision(4), `"d4"`}} {
		if js, err := json.Marshal(c.v); err != nil || string(js) != c.want {
			t.Errorf("marshal %#v = %s, %v; want %s", c.v, js, err, c.want)
		}
	}
}

// TestDecisionUnmarshalRejectsGarbage checks malformed tokens fail loudly
// instead of producing a silently wrong replay.
func TestDecisionUnmarshalRejectsGarbage(t *testing.T) {
	for _, bad := range []string{`"x3"`, `"t"`, `"d-1"`, `"tx"`, `7`} {
		var d sched.Decision
		if err := json.Unmarshal([]byte(bad), &d); err == nil {
			t.Errorf("unmarshal %s succeeded as %v, want error", bad, d)
		}
	}
}

// FuzzScheduleJSON fuzzes the two serialized schedule forms against each
// other: any schedule the text parser accepts must survive the JSON round
// trip unchanged, and any JSON that decodes as a schedule must re-encode
// to a fixed point. Replay correctness depends on this format never
// drifting (bundle.json stores schedules as JSON, reports as text).
func FuzzScheduleJSON(f *testing.F) {
	f.Add("t0 t2 d1 t0 d0 t17")
	f.Add("t0")
	f.Add("d3 d0 t1")
	f.Add("")
	f.Add(`["t0","d0"]`)
	f.Add("t99999999999999999999")
	f.Fuzz(func(t *testing.T, s string) {
		if in, err := sched.ParseSchedule(s); err == nil {
			js, err := json.Marshal(in)
			if err != nil {
				t.Fatalf("marshal %q: %v", in, err)
			}
			var out sched.Schedule
			if err := json.Unmarshal(js, &out); err != nil {
				t.Fatalf("unmarshal %s: %v", js, err)
			}
			if out.String() != in.String() {
				t.Fatalf("round trip changed the schedule: %q -> %q", in, out)
			}
		}
		var s1 sched.Schedule
		if err := json.Unmarshal([]byte(s), &s1); err != nil {
			return
		}
		js, err := json.Marshal(s1)
		if err != nil {
			t.Fatalf("re-marshal of decoded schedule: %v", err)
		}
		var s2 sched.Schedule
		if err := json.Unmarshal(js, &s2); err != nil {
			t.Fatalf("re-unmarshal %s: %v", js, err)
		}
		if s1.String() != s2.String() {
			t.Fatalf("decode/encode not a fixed point: %q -> %q", s1, s2)
		}
	})
}
