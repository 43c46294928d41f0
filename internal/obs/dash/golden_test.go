package dash

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"icb/internal/core"
	"icb/internal/obs"
	"icb/internal/progs/txnmgr"
	"icb/internal/progs/wsq"
	"icb/internal/zing"
	"icb/internal/zml"
)

// alwaysDue is a checkpoint sink that asks for a snapshot at every
// execution boundary and discards it, so the stream carries one
// checkpoint event per boundary.
type alwaysDue struct{}

func (alwaysDue) Due() bool                       { return true }
func (alwaysDue) Capture(*core.SearchState, bool) {}

// goldenRuns are the pinned event streams: a cached, reduced, checkpointed
// ICB search that finds a bug (execution, bound, bug, cache_hit,
// checkpoint, bpor_stats and search_done events) and the explicit-state
// checker on a buggy ZML model.
var goldenRuns = []struct {
	file string
	run  func(t *testing.T, sink obs.Sink)
}{
	{"icb_wsq_steal_unlocked.ndjson", func(t *testing.T, sink obs.Sink) {
		core.Explore(wsq.Program(wsq.StealUnlocked, wsq.Params{}), core.ICB{}, core.Options{
			MaxPreemptions: 2,
			CheckRaces:     true,
			StateCache:     true,
			BPOR:           true,
			Checkpoint:     alwaysDue{},
			Sink:           sink,
		})
	}},
	{"zing_txnmgr_commit_window.ndjson", func(t *testing.T, sink obs.Sink) {
		prog, err := zml.Compile(txnmgr.Source(txnmgr.CommitWindow))
		if err != nil {
			t.Fatal(err)
		}
		zing.CheckICB(prog, zing.Options{MaxPreemptions: 2, Sink: sink})
	}},
}

var (
	tMSField       = regexp.MustCompile(`,"t_ms":[0-9]+`)
	durationField  = regexp.MustCompile(`,"duration_ns":[0-9]+`)
	headerDataTail = regexp.MustCompile(`,"data":\{.*\}\}$`)
)

// normalizeNDJSON strips the wall-clock parts of a stream — every line's
// t_ms, the header's build data, duration_ns fields and profile lines —
// leaving bytes that are identical from run to run.
func normalizeNDJSON(raw []byte) []byte {
	var out bytes.Buffer
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		if strings.HasPrefix(line, `{"event":"profile",`) {
			continue
		}
		line = tMSField.ReplaceAllString(line, "")
		if strings.HasPrefix(line, `{"event":"header",`) {
			line = headerDataTail.ReplaceAllString(line, "}")
		}
		line = durationField.ReplaceAllString(line, "")
		out.WriteString(line)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// eventNames lists the event names of a normalized stream, header
// excluded.
func eventNames(norm []byte) []string {
	var names []string
	for _, line := range strings.Split(strings.TrimRight(string(norm), "\n"), "\n") {
		name, _, _ := strings.Cut(strings.TrimPrefix(line, `{"event":"`), `"`)
		if name != "header" {
			names = append(names, name)
		}
	}
	return names
}

// TestGoldenEventStream pins the NDJSON bytes of two whole searches, less
// their wall-clock fields, and checks that the dashboard's SSE bridge names
// every event exactly as the NDJSON stream does. The golden files were
// recorded before the single-Emit event path replaced the per-event Sink
// methods; the test never rewrites them. Regenerate them by hand (the same
// runs through an NDJSON sink, normalized as below) only when a wire-format
// change is intended.
func TestGoldenEventStream(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.file, func(t *testing.T) {
			var buf bytes.Buffer
			nd := obs.NewNDJSON(&buf)
			srv := New(nil)
			// A subscriber large enough that nothing is dropped.
			sub := make(chan sseEvent, 1<<20)
			srv.bc.mu.Lock()
			srv.bc.subs[sub] = struct{}{}
			srv.bc.nsubs.Store(1)
			srv.bc.mu.Unlock()

			g.run(t, obs.Multi(nd, srv.Sink()))
			if err := nd.Close(); err != nil {
				t.Fatal(err)
			}
			got := normalizeNDJSON(buf.Bytes())
			path := filepath.Join("..", "testdata", g.file)
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				gl := strings.Split(string(got), "\n")
				wl := strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("line %d differs:\n got %s\nwant %s", i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("stream has %d lines, golden has %d", len(gl), len(wl))
			}

			close(sub)
			var sse []string
			for ev := range sub {
				sse = append(sse, ev.name)
			}
			nd2 := eventNames(got)
			if strings.Join(sse, ",") != strings.Join(nd2, ",") {
				t.Errorf("SSE event names differ from NDJSON names:\n sse %d events\nndjson %d events", len(sse), len(nd2))
			}
		})
	}
}
