package fuzz

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"icb/internal/obs"
	"icb/internal/obs/repro"
	"icb/internal/sched"
)

// CampaignConfig configures a fuzzing run.
type CampaignConfig struct {
	// Seed is the first generator seed; program i uses Seed+i.
	Seed int64
	// N is the number of programs to check (ignored when Duration is set).
	N int
	// Duration, when positive, runs programs until the wall clock expires
	// instead of counting to N.
	Duration time.Duration
	// OutDir, when non-empty, receives one artifact directory per
	// discrepant program (spec, shrunk spec, report, repro bundles).
	OutDir string
	// Limits bounds the per-program oracle.
	Limits Limits
	// Log receives one-line progress output; nil silences it.
	Log io.Writer
	// LogEvery prints a progress line every this many programs (default
	// 100).
	LogEvery int
	// Stop, when non-nil, ends the campaign at the next program boundary
	// once set (the command layer sets it from SIGINT/SIGTERM so a
	// time-boxed run still flushes its stats and event stream).
	Stop *atomic.Bool
	// Sink, when non-nil, receives structured campaign telemetry: an
	// obs.CampaignEvent at every program boundary (a program takes far
	// longer than an execution, so this is not a hot path — and live
	// surfaces like -http's /metrics would otherwise sit stale for the
	// LogEvery≈100 programs between console lines) and once more (with
	// Done set) at the end, plus — when Limits.Profiler is attached — a
	// final obs.ProfileEvent aggregating every strategy exploration the
	// campaign ran. This puts nightly fuzz runs on the same NDJSON stream
	// the search binaries use.
	Sink obs.Sink
}

// CampaignStats aggregates one run.
type CampaignStats struct {
	// Programs is the number of generated programs checked.
	Programs int
	// Skipped counts programs whose schedule space exceeded the oracle
	// limit (not checked, not failures).
	Skipped int
	// Buggy counts checked programs whose oracle found at least one bug.
	Buggy int
	// Executions totals the oracle's enumerated executions.
	Executions int
	// MaxExecutions is the largest single-program schedule space checked.
	MaxExecutions int
	// BugKinds histograms the oracle's defects by kind string.
	BugKinds map[string]int
	// MinPreemptions histograms buggy programs by their global minimal
	// preemption count.
	MinPreemptions map[int]int
	// Discrepancies collects every violated property across all programs.
	Discrepancies []Discrepancy
	// Duration is the wall-clock cost of the campaign.
	Duration time.Duration
}

// Clean reports a discrepancy-free campaign.
func (s *CampaignStats) Clean() bool { return len(s.Discrepancies) == 0 }

// Summary renders the aggregate for logs and EXPERIMENTS.md.
func (s *CampaignStats) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "programs=%d skipped=%d buggy=%d oracle-executions=%d max-program=%d discrepancies=%d in %s\n",
		s.Programs, s.Skipped, s.Buggy, s.Executions, s.MaxExecutions, len(s.Discrepancies),
		s.Duration.Round(time.Millisecond))
	kinds := make([]string, 0, len(s.BugKinds))
	for k := range s.BugKinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "  bug kind %-18s %d programs\n", k+":", s.BugKinds[k])
	}
	var mins []int
	for m := range s.MinPreemptions {
		mins = append(mins, m)
	}
	sort.Ints(mins)
	for _, m := range mins {
		fmt.Fprintf(&b, "  min preemptions %d:    %d programs\n", m, s.MinPreemptions[m])
	}
	return b.String()
}

// Campaign generates, oracles and cross-checks programs until the
// configured budget runs out. Discrepant programs are shrunk and persisted
// under OutDir. The returned error covers only environmental failures
// (artifact I/O); discrepancies are reported via the stats.
func Campaign(cfg CampaignConfig) (*CampaignStats, error) {
	if cfg.N <= 0 {
		cfg.N = 500
	}
	if cfg.LogEvery <= 0 {
		cfg.LogEvery = 100
	}
	cfg.Limits.fill()
	stats := &CampaignStats{
		BugKinds:       map[string]int{},
		MinPreemptions: map[int]int{},
	}
	start := time.Now()
	deadline := time.Time{}
	if cfg.Duration > 0 {
		deadline = start.Add(cfg.Duration)
	}

	for i := 0; ; i++ {
		if cfg.Stop != nil && cfg.Stop.Load() {
			break
		}
		if cfg.Duration > 0 {
			if time.Now().After(deadline) {
				break
			}
		} else if i >= cfg.N {
			break
		}
		seed := cfg.Seed + int64(i)
		spec := Generate(seed)
		discs, truth, err := CheckProgram(spec, cfg.Limits)
		if err != nil {
			// ErrTooBig (or an un-oracleable program): skipped, counted.
			stats.Skipped++
			continue
		}
		stats.Programs++
		stats.Executions += truth.Executions
		if truth.Executions > stats.MaxExecutions {
			stats.MaxExecutions = truth.Executions
		}
		if len(truth.Bugs) > 0 {
			stats.Buggy++
			stats.MinPreemptions[truth.MinPreemptions]++
			seen := map[string]bool{}
			for id := range truth.Bugs {
				if k := id.Kind.String(); !seen[k] {
					seen[k] = true
					stats.BugKinds[k]++
				}
			}
		}
		if len(discs) > 0 {
			stats.Discrepancies = append(stats.Discrepancies, discs...)
			if cfg.Log != nil {
				for _, d := range discs {
					fmt.Fprintf(cfg.Log, "DISCREPANCY %s\n", d)
				}
			}
			if cfg.OutDir != "" {
				shrunk := shrinkFor(spec, discs, cfg.Limits)
				if err := WriteDiscrepancy(cfg.OutDir, spec, shrunk, discs); err != nil {
					return stats, fmt.Errorf("writing discrepancy artifacts: %w", err)
				}
			}
		}
		if cfg.Log != nil && stats.Programs%cfg.LogEvery == 0 {
			fmt.Fprintf(cfg.Log, "checked %d programs (%d skipped, %d buggy, %d oracle executions, %d discrepancies)\n",
				stats.Programs, stats.Skipped, stats.Buggy, stats.Executions, len(stats.Discrepancies))
		}
		if cfg.Sink != nil {
			ev := campaignEvent(stats, time.Since(start), false)
			cfg.Sink.Emit(&ev)
		}
	}
	stats.Duration = time.Since(start)
	if cfg.Sink != nil {
		ev := campaignEvent(stats, stats.Duration, true)
		cfg.Sink.Emit(&ev)
		if cfg.Limits.Profiler != nil {
			cfg.Sink.Emit(&obs.ProfileEvent{Profile: cfg.Limits.Profiler.Profile()})
		}
	}
	return stats, nil
}

// campaignEvent projects the running stats onto the structured event.
func campaignEvent(s *CampaignStats, elapsed time.Duration, done bool) obs.CampaignEvent {
	ev := obs.CampaignEvent{
		Programs:      s.Programs,
		Skipped:       s.Skipped,
		Buggy:         s.Buggy,
		Executions:    int64(s.Executions),
		Discrepancies: len(s.Discrepancies),
		Done:          done,
	}
	if elapsed > 0 {
		ev.ExecsPerSec = float64(s.Executions) / elapsed.Seconds()
	}
	return ev
}

// WriteDiscrepancy persists one discrepant program under dir: the original
// and shrunk specs, a report listing every violated property, and — for
// each discrepancy carrying a witness schedule — a full repro bundle
// (bundle.json / swimlane.txt / trace.json / report.txt) replayable
// against the shrunk program.
func WriteDiscrepancy(dir string, spec, shrunk *Spec, discs []Discrepancy) error {
	if len(discs) == 0 {
		return nil
	}
	slug := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		default:
			return '-'
		}
	}, discs[0].Property)
	d := filepath.Join(dir, fmt.Sprintf("disc-s%d-%s", spec.Seed, slug))
	if err := os.MkdirAll(d, 0o755); err != nil {
		return err
	}
	write := func(name string, s *Spec) error {
		js, err := s.MarshalText()
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(d, name), append(js, '\n'), 0o644)
	}
	if err := write("spec.json", spec); err != nil {
		return err
	}
	if err := write("shrunk.json", shrunk); err != nil {
		return err
	}

	var rep strings.Builder
	fmt.Fprintf(&rep, "differential fuzzing discrepancy, seed %d\n\n", spec.Seed)
	for _, disc := range discs {
		fmt.Fprintf(&rep, "%s\n", disc)
	}
	fmt.Fprintf(&rep, "\noriginal program (%d ops):\n%s\n", spec.Ops(), spec)
	fmt.Fprintf(&rep, "shrunk program (%d ops):\n%s\n", shrunk.Ops(), shrunk)
	fmt.Fprintf(&rep, "re-check with:\n  icb-fuzz -seed %d -n 1\n", spec.Seed)
	if err := os.WriteFile(filepath.Join(d, "report.txt"), []byte(rep.String()), 0o644); err != nil {
		return err
	}

	// Witness schedules replay against the original (unshrunk) program:
	// they were recorded on it.
	var final string
	prog := spec.Program(&final)
	lim := Limits{}
	lim.fill()
	w := repro.NewWriter(d, prog, repro.Meta{
		Program:    fmt.Sprintf("fuzz:%d", spec.Seed),
		Strategy:   "fuzz-differential",
		Seed:       spec.Seed,
		Bound:      -1,
		Mode:       sched.ModeSyncOnly.String(),
		MaxSteps:   lim.MaxSteps,
		CheckRaces: true,
	})
	for i, disc := range discs {
		if len(disc.Witness) == 0 {
			continue
		}
		w.Emit(&obs.BugEvent{
			Kind:      disc.Property,
			Message:   disc.Detail,
			Execution: i + 1,
			Schedule:  disc.Witness.String(),
			Steps:     len(disc.Witness),
		})
	}
	return w.Err()
}
