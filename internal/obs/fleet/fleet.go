// Package fleet is the multi-process half of the observability layer: the
// campaign aggregator that turns N independent icb processes into one
// legible fleet. Each worker already serves its own dashboard
// (/api/snapshot, /metrics); the Aggregator polls every peer on an
// interval, merges the per-process snapshots into one fleet-wide
// obs.Snapshot (summed counters, per-bound progress merged by bound,
// per-peer worker panels, min time-to-first-bug), and hands the merged
// view to the same dashboard/exporter stack a single search uses — the
// ROADMAP's "dashboard as the aggregation point".
//
// Peers come from two sources: an explicit URL list (-peers) and file
// discovery in a shared journal directory, where every worker with an
// HTTP listener advertises itself (Advertise) as peers/<run-id>.json.
// A peer that stops answering flips down — its status is visible per-peer
// and its last-known counters stay in the merged totals, so a dead worker
// reads as a flat line, not a dip.
package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"icb/internal/obs"
	"icb/internal/obs/promexp"
)

// peersDirName is the discovery subdirectory of a shared journal dir.
const peersDirName = "peers"

// Advertisement is one worker's discovery record, written by Advertise and
// read by DiscoverPeers.
type Advertisement struct {
	// URL is the worker's dashboard base URL (http://host:port).
	URL string `json:"url"`
	// RunID identifies the run (the journal run id when journaled).
	RunID string `json:"run_id,omitempty"`
	// PID is the advertising process, for operator forensics.
	PID int `json:"pid,omitempty"`
	// StartUnixNS is when the advertisement was written.
	StartUnixNS int64 `json:"start_unix_ns,omitempty"`
}

// BaseURL converts a bound listener address into a dialable base URL:
// unspecified hosts (":8081", "0.0.0.0:8081", "[::]:8081") are rewritten
// to 127.0.0.1, which is correct for the single-machine fleets file
// discovery serves (cross-machine fleets pass explicit -peers URLs).
func BaseURL(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "http://" + addr
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// Advertise writes this worker's discovery record under dir/peers and
// returns a cleanup that removes it (call on shutdown; a crashed worker's
// stale record simply polls as down). The write is atomic (tmp + rename)
// like every other journal artifact, so a concurrently polling aggregator
// never reads a torn record.
func Advertise(dir, runID, baseURL string) (func(), error) {
	pdir := filepath.Join(dir, peersDirName)
	if err := os.MkdirAll(pdir, 0o755); err != nil {
		return nil, err
	}
	ad := Advertisement{URL: baseURL, RunID: runID, PID: os.Getpid(), StartUnixNS: time.Now().UnixNano()}
	js, err := json.Marshal(ad)
	if err != nil {
		return nil, err
	}
	name := runID
	if name == "" {
		name = fmt.Sprintf("pid-%d", os.Getpid())
	}
	path := filepath.Join(pdir, name+".json")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, js, 0o644); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	return func() { os.Remove(path) }, nil
}

// DiscoverPeers reads every advertisement under dir/peers and returns the
// advertised base URLs, sorted. A missing peers directory is an empty
// fleet, not an error; unreadable records are skipped (a worker may be
// mid-advertise).
func DiscoverPeers(dir string) ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(dir, peersDirName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var urls []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		js, err := os.ReadFile(filepath.Join(dir, peersDirName, e.Name()))
		if err != nil {
			continue
		}
		var ad Advertisement
		if json.Unmarshal(js, &ad) != nil || ad.URL == "" {
			continue
		}
		urls = append(urls, ad.URL)
	}
	sort.Strings(urls)
	return urls, nil
}

// Options configure an Aggregator.
type Options struct {
	// Peers are explicit worker base URLs (http://host:port).
	Peers []string
	// JournalDir, when set, adds file-discovered peers each round.
	JournalDir string
	// Interval is the poll period (default 2s).
	Interval time.Duration
	// Timeout bounds each peer request (default Interval, capped at 5s).
	Timeout time.Duration
	// Log receives poll diagnostics (nil = slog.Default()).
	Log *slog.Logger
	// Sink, when set, receives one FleetSnapshotEvent per poll round and a
	// PeerStatusEvent per peer up/down transition (edges only).
	Sink obs.Sink
}

// peerState is the aggregator's record of one worker.
type peerState struct {
	status obs.PeerStatus
	// snap is the last successfully fetched snapshot (kept while down so
	// merged totals do not dip).
	snap obs.Snapshot
	// polled reports snap/status have been populated at least once.
	polled bool
}

// Aggregator polls a set of peers and maintains the merged fleet view.
// Construct with New, drive with Run (or PollOnce in tests), read with
// Merged.
type Aggregator struct {
	opt    Options
	client *http.Client
	log    *slog.Logger

	// mu guards the peer table against the Merged/Peers readers; writes
	// happen only on the polling goroutine.
	mu    sync.Mutex
	peers map[string]*peerState
	order []string
	// rounds counts completed poll rounds (readiness: >= 1 means the
	// merged view reflects at least one sweep).
	rounds int64
}

// New returns an aggregator over the given options; no polling starts
// until Run or PollOnce.
func New(opt Options) *Aggregator {
	if opt.Interval <= 0 {
		opt.Interval = 2 * time.Second
	}
	if opt.Timeout <= 0 {
		opt.Timeout = opt.Interval
		if opt.Timeout > 5*time.Second {
			opt.Timeout = 5 * time.Second
		}
	}
	log := opt.Log
	if log == nil {
		log = slog.Default()
	}
	a := &Aggregator{
		opt:    opt,
		client: &http.Client{Timeout: opt.Timeout},
		log:    log,
		peers:  map[string]*peerState{},
	}
	return a
}

// Run polls every Interval until ctx is done. The first round runs
// immediately so /readyz and the dashboard populate without waiting a full
// interval.
func (a *Aggregator) Run(ctx context.Context) {
	t := time.NewTicker(a.opt.Interval)
	defer t.Stop()
	a.PollOnce(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			a.PollOnce(ctx)
		}
	}
}

// Rounds returns the number of completed poll rounds.
func (a *Aggregator) Rounds() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rounds
}

// PollOnce runs one poll round: refresh the peer set, fetch every peer's
// /api/snapshot and /metrics, update statuses (emitting transition
// events), and emit the round's fleet_snapshot.
func (a *Aggregator) PollOnce(ctx context.Context) {
	urls := a.currentPeerSet()
	type result struct {
		url  string
		snap obs.Snapshot
		vals map[string]float64
		err  error
	}
	results := make([]result, len(urls))
	done := make(chan int)
	for i, u := range urls {
		go func(i int, u string) {
			defer func() { done <- i }()
			snap, err := a.fetchSnapshot(ctx, u)
			if err != nil {
				results[i] = result{url: u, err: err}
				return
			}
			// /metrics is scraped too: it is the interface external
			// monitoring depends on, so the fleet poll exercises it every
			// round and logs divergence from the JSON view.
			vals, merr := a.fetchMetrics(ctx, u)
			if merr != nil {
				a.log.Warn("peer /metrics unreadable", "peer", u, "err", merr)
			}
			results[i] = result{url: u, snap: snap, vals: vals}
		}(i, u)
	}
	for range urls {
		<-done
	}

	a.mu.Lock()
	now := time.Now().UnixNano()
	for _, r := range results {
		ps := a.peers[r.url]
		if ps == nil {
			ps = &peerState{status: obs.PeerStatus{Peer: r.url}}
			a.peers[r.url] = ps
			a.order = append(a.order, r.url)
			sort.Strings(a.order)
		}
		wasUp, wasPolled := ps.status.Up, ps.polled
		if r.err != nil {
			ps.status.Up = false
			ps.status.Err = r.err.Error()
		} else {
			ps.snap = r.snap
			ps.status = obs.PeerStatus{
				Peer:           r.url,
				Up:             true,
				LastSeenUnixNS: now,
				Executions:     r.snap.Executions,
				Bugs:           r.snap.Bugs,
				CurBound:       r.snap.CurBound,
				Workers:        len(r.snap.Workers),
			}
			if v, ok := r.vals["icb_executions_total"]; ok && int64(v) != r.snap.Executions {
				// Racing counters differ a little between the two fetches;
				// log only when the exposition is behind the JSON view by a
				// round's worth, which would mean a broken exporter.
				a.log.Debug("peer /metrics and /api/snapshot diverge", "peer", r.url,
					"metrics", int64(v), "snapshot", r.snap.Executions)
			}
		}
		ps.polled = true
		if (!wasPolled || wasUp != ps.status.Up) && a.opt.Sink != nil {
			a.opt.Sink.Emit(&obs.PeerStatusEvent{
				Peer:       r.url,
				Up:         ps.status.Up,
				Err:        ps.status.Err,
				Executions: ps.status.Executions,
			})
		}
		if !ps.status.Up && (wasUp || !wasPolled) {
			a.log.Warn("peer down", "peer", r.url, "err", ps.status.Err)
		} else if ps.status.Up && !wasUp && wasPolled {
			a.log.Info("peer recovered", "peer", r.url)
		}
	}
	a.rounds++
	merged := a.mergedLocked()
	a.mu.Unlock()

	if a.opt.Sink != nil {
		var peersUp int
		for _, p := range merged.Peers {
			if p.Up {
				peersUp++
			}
		}
		a.opt.Sink.Emit(&obs.FleetSnapshotEvent{
			Peers:      len(merged.Peers),
			PeersUp:    peersUp,
			Executions: merged.Executions,
			States:     merged.States,
			Bugs:       merged.Bugs,
		})
	}
}

// currentPeerSet merges the static peer list with file discovery.
func (a *Aggregator) currentPeerSet() []string {
	set := map[string]bool{}
	var urls []string
	add := func(u string) {
		u = strings.TrimRight(u, "/")
		if u == "" || set[u] {
			return
		}
		set[u] = true
		urls = append(urls, u)
	}
	for _, u := range a.opt.Peers {
		add(u)
	}
	if a.opt.JournalDir != "" {
		disc, err := DiscoverPeers(a.opt.JournalDir)
		if err != nil {
			a.log.Warn("peer discovery failed", "dir", a.opt.JournalDir, "err", err)
		}
		for _, u := range disc {
			add(u)
		}
	}
	// Known-but-no-longer-advertised peers keep getting polled: removal
	// of an advertisement does not erase history, it just stops answering.
	a.mu.Lock()
	known := append([]string(nil), a.order...)
	a.mu.Unlock()
	for _, u := range known {
		add(u)
	}
	sort.Strings(urls)
	return urls
}

func (a *Aggregator) fetchSnapshot(ctx context.Context, base string) (obs.Snapshot, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/api/snapshot", nil)
	if err != nil {
		return obs.Snapshot{}, err
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return obs.Snapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return obs.Snapshot{}, fmt.Errorf("/api/snapshot: %s", resp.Status)
	}
	var s obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return obs.Snapshot{}, fmt.Errorf("/api/snapshot: %w", err)
	}
	return s, nil
}

func (a *Aggregator) fetchMetrics(ctx context.Context, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return promexp.ReadValues(resp.Body)
}

// Peers returns the current per-peer statuses, sorted by URL.
func (a *Aggregator) Peers() []obs.PeerStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]obs.PeerStatus, 0, len(a.order))
	for _, u := range a.order {
		out = append(out, a.peers[u].status)
	}
	return out
}

// Merged returns the fleet-wide snapshot: every peer's last-known
// snapshot folded into one. This is the dashboard/exporter source of
// `icb-campaign serve`.
func (a *Aggregator) Merged() obs.Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.mergedLocked()
}

func (a *Aggregator) mergedLocked() obs.Snapshot {
	var out obs.Snapshot
	out.CurBound = -1
	bounds := map[int]*obs.BoundSnapshot{}
	ests := map[int]*obs.BoundEstimate{}
	firstBugs := map[string]obs.ProfileFirstBug{}
	worker := 0
	var workerTotal int64

	for _, u := range a.order {
		ps := a.peers[u]
		out.Peers = append(out.Peers, ps.status)
		if !ps.polled {
			continue
		}
		s := ps.snap
		out.Executions += s.Executions
		out.States += s.States
		out.Classes += s.Classes
		out.CacheHits += s.CacheHits
		out.CacheMisses += s.CacheMisses
		out.QueueDepth += s.QueueDepth
		out.Bugs += s.Bugs
		out.SSEDropped += s.SSEDropped
		out.Truncated = out.Truncated || s.Truncated
		if s.CurBound > out.CurBound {
			out.CurBound = s.CurBound
		}
		for _, b := range s.Bounds {
			mb := bounds[b.Bound]
			if mb == nil {
				mb = &obs.BoundSnapshot{Bound: b.Bound}
				bounds[b.Bound] = mb
			}
			mb.Executions += b.Executions
			mb.DurationNS += b.DurationNS
		}
		// Workers re-index across the fleet: peer 1's workers 0..k come
		// first, then peer 2's, in peer order. Shares are recomputed over
		// the fleet total below. A worker-less (sequential) peer
		// contributes one synthetic worker so the utilization panel shows
		// every process.
		if len(s.Workers) == 0 && s.Executions > 0 {
			out.Workers = append(out.Workers, obs.WorkerSnapshot{Worker: worker, Executions: s.Executions})
			workerTotal += s.Executions
			worker++
		}
		for _, ws := range s.Workers {
			out.Workers = append(out.Workers, obs.WorkerSnapshot{Worker: worker, Executions: ws.Executions})
			workerTotal += ws.Executions
			worker++
		}
		for _, e := range s.Estimates {
			me := ests[e.Bound]
			if me == nil {
				me = &obs.BoundEstimate{Bound: e.Bound, Done: true}
				ests[e.Bound] = me
			}
			me.Executions += e.Executions
			me.EstTotal += e.EstTotal
			me.Done = me.Done && e.Done
			if e.ETANanos > me.ETANanos {
				me.ETANanos = e.ETANanos
			}
		}
		if s.Profile != nil {
			for _, fb := range s.Profile.FirstBugs {
				key := fb.Kind + "\x00" + fb.Message
				if prev, ok := firstBugs[key]; !ok || fb.TNS < prev.TNS {
					firstBugs[key] = fb
				}
			}
		}
	}

	for _, b := range sortedKeys(bounds) {
		out.Bounds = append(out.Bounds, *bounds[b])
	}
	for i := range out.Workers {
		if workerTotal > 0 {
			out.Workers[i].Share = float64(out.Workers[i].Executions) / float64(workerTotal)
		}
	}
	for _, b := range sortedKeys(ests) {
		e := ests[b]
		if e.EstTotal > 0 {
			e.Fraction = float64(e.Executions) / e.EstTotal
			if e.Fraction > 1 {
				e.Fraction = 1
			}
		}
		out.Estimates = append(out.Estimates, *e)
	}
	if len(firstBugs) > 0 {
		prof := &obs.ProfileData{}
		for _, fb := range firstBugs {
			prof.FirstBugs = append(prof.FirstBugs, fb)
		}
		sort.Slice(prof.FirstBugs, func(i, j int) bool { return prof.FirstBugs[i].TNS < prof.FirstBugs[j].TNS })
		out.Profile = prof
	}
	return out
}

func sortedKeys[V any](m map[int]V) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}
