package chaos

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"graphlocality/internal/obs"
	"graphlocality/internal/runctl"
	"graphlocality/internal/vfs"
)

// Options configures a campaign.
type Options struct {
	// Seed is the campaign seed: (Seed, index) fully determines every
	// schedule, so any failure replays from the two printed numbers.
	Seed int64
	// Count is how many distinct schedules to run (distinctness is by
	// canonical Schedule.String per workload; colliding indices are
	// skipped and recorded as duplicates).
	Count int
	// Workloads restricts the campaign to the named workloads (nil =
	// all of Workloads()).
	Workloads []string
	// ScratchDir hosts the per-schedule scratch directories ("" = the
	// OS temp dir). Every schedule gets a fresh subdirectory.
	ScratchDir string
	// Log receives one progress line per schedule (nil = silent).
	Log io.Writer
	// Unverified enables the sabotage self-test (see Env.Unverified).
	// Never set outside the campaign's own tests and CI proofs: its
	// whole point is to make corruption schedules FAIL the campaign.
	Unverified bool
}

// ScheduleResult records one schedule's run.
type ScheduleResult struct {
	Index    int    `json:"index"`
	Workload string `json:"workload"`
	// Spec is the canonical fault list (Schedule.String).
	Spec string `json:"spec"`
	// Crashed reports whether the schedule armed a simulated
	// process-death fault (a vfs crash rule).
	Crashed bool `json:"crashed,omitempty"`
	// VFSFaults is how many vfs operations faulted.
	VFSFaults int `json:"vfs_faults,omitempty"`
	// Violations are the invariants this schedule broke (empty = pass).
	Violations []Violation `json:"violations,omitempty"`
}

// Report is the campaign outcome, serialized as the JSON campaign
// manifest.
type Report struct {
	Seed int64 `json:"seed"`
	// Ran is how many distinct schedules ran; Skipped how many indices
	// were skipped as duplicates of an earlier schedule.
	Ran     int `json:"ran"`
	Skipped int `json:"skipped"`
	// Violations is the total violation count across schedules.
	Violations int              `json:"violations"`
	Schedules  []ScheduleResult `json:"schedules"`
	// Metrics is the obs manifest of the campaign's own counters
	// (chaos.schedules_run, chaos.crashes, chaos.vfs_faults,
	// chaos.violations).
	Metrics obs.Manifest `json:"metrics"`
}

// Failed reports whether any schedule broke an invariant.
func (r *Report) Failed() bool { return r.Violations > 0 }

// Run executes a seeded campaign: Count distinct schedules, each in a
// fresh scratch directory with its faults armed, each checked against
// the workload's invariants. The returned error covers engine problems
// only (bad options, unusable scratch dir); invariant violations are
// data — inspect Report.Failed.
func Run(opts Options) (*Report, error) {
	if opts.Count <= 0 {
		return nil, fmt.Errorf("chaos: campaign count must be positive, got %d", opts.Count)
	}
	wanted := map[string]bool{}
	for _, w := range opts.Workloads {
		if _, err := workloadByName(w); err != nil {
			return nil, err
		}
		wanted[w] = true
	}
	reg := obs.NewRegistry()
	rep := &Report{Seed: opts.Seed}
	seen := map[string]bool{}
	for index := 0; rep.Ran < opts.Count; index++ {
		sched := GenerateSchedule(opts.Seed, index)
		if len(wanted) > 0 && !wanted[sched.Workload] {
			continue
		}
		key := sched.Workload + "|" + sched.String()
		if seen[key] {
			rep.Skipped++
			continue
		}
		seen[key] = true
		res, err := runSchedule(opts, sched, index)
		if err != nil {
			return nil, err
		}
		rep.Ran++
		rep.Violations += len(res.Violations)
		rep.Schedules = append(rep.Schedules, res)
		reg.Counter("chaos.schedules_run").Inc()
		if res.Crashed {
			reg.Counter("chaos.crashes").Inc()
		}
		reg.Counter("chaos.vfs_faults").Add(uint64(res.VFSFaults))
		reg.Counter("chaos.violations").Add(uint64(len(res.Violations)))
		if opts.Log != nil {
			verdict := "ok"
			if len(res.Violations) > 0 {
				verdict = fmt.Sprintf("FAIL (%d violation(s)) — replay: chaos replay -seed %d -index %d",
					len(res.Violations), opts.Seed, index)
			}
			fmt.Fprintf(opts.Log, "schedule %d [%s] %s: %s\n", index, sched.Workload, sched.String(), verdict)
		}
	}
	rep.Metrics = reg.Manifest(obs.Meta{Tool: "localitylab", Command: "chaos run"})
	return rep, nil
}

// Replay re-runs exactly one schedule of a seeded campaign, identified
// by its index, and returns its result. Schedules are pure functions of
// (seed, index), so this reproduces the campaign's run bit-for-bit for
// sequential workloads (and verdict-for-verdict for the concurrent
// race workload, whose invariants are interleaving-independent).
func Replay(opts Options, index int) (ScheduleResult, error) {
	if index < 0 {
		return ScheduleResult{}, fmt.Errorf("chaos: negative schedule index %d", index)
	}
	return runSchedule(opts, GenerateSchedule(opts.Seed, index), index)
}

// runSchedule arms one schedule's faults, runs its workload in a fresh
// scratch directory, and disarms everything before returning.
func runSchedule(opts Options, sched Schedule, index int) (ScheduleResult, error) {
	res := ScheduleResult{Index: index, Workload: sched.Workload, Spec: sched.String()}
	wl, err := workloadByName(sched.Workload)
	if err != nil {
		return res, err
	}
	dir, err := os.MkdirTemp(opts.ScratchDir, fmt.Sprintf("chaos-%d-*", index))
	if err != nil {
		return res, fmt.Errorf("chaos: scratch dir: %w", err)
	}
	defer os.RemoveAll(dir)

	fault, err := vfs.NewFaultFS(vfs.OS{}, sched.Rules)
	if err != nil {
		return res, err
	}

	removers := make([]func(), 0, len(sched.Failpoints))
	for _, nf := range sched.Failpoints {
		removers = append(removers, runctl.Inject(nf.Name, nf.FP))
	}
	env := &Env{
		Dir:        dir,
		Unverified: opts.Unverified,
		fault:      fault,
		disarm: func() {
			for _, r := range removers {
				r()
			}
		},
	}
	// The workload calls Restart() itself; this is the backstop for
	// workloads that fail before reaching it.
	defer env.Restart()

	res.Violations = wl(env)
	res.Crashed = crashScheduled(sched)
	res.VFSFaults = fault.Fired()
	return res, nil
}

// crashScheduled reports whether the schedule contains any
// process-death fault.
func crashScheduled(sched Schedule) bool {
	for _, r := range sched.Rules {
		if r.Kind == vfs.FaultCrash {
			return true
		}
	}
	return false
}

// WriteReport writes the campaign report as the JSON campaign manifest,
// atomically (the report about crash safety should not itself tear).
func WriteReport(path string, rep *Report) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return vfs.WriteFileAtomic(nil, path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	})
}
