package chaos

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"graphlocality/internal/vfs"
)

// runctl failpoints (armed by serve schedules) are process-global, so no
// test in this package may use t.Parallel.

func TestParseScheduleRoundTrip(t *testing.T) {
	cases := []string{
		"vfs.write=enospc",
		"vfs.write=short*2@1",
		"vfs.rename=drop*1",
		"vfs.sync=crash@3",
		"vfs.write=flip*1",
		"vfs.write=flip@2,vfs.rename=crash",
		"serve.job.run=transient*2",
		"vfs.read=eio*1@2,serve.store.get=error*1",
	}
	for _, spec := range cases {
		s, err := ParseSchedule(spec)
		if err != nil {
			t.Fatalf("ParseSchedule(%q): %v", spec, err)
		}
		canon := s.String()
		s2, err := ParseSchedule(canon)
		if err != nil {
			t.Fatalf("re-parse of canonical %q: %v", canon, err)
		}
		if got := s2.String(); got != canon {
			t.Errorf("canonicalization not idempotent: %q -> %q -> %q", spec, canon, got)
		}
	}
}

func TestParseScheduleRejectsGarbage(t *testing.T) {
	bad := []string{
		"vfs.write",             // no kind
		"vfs.teleport=eio",      // unknown op
		"vfs.write=explode",     // unknown kind
		"vfs.read=short",        // short is write-only
		"vfs.sync=flip",         // flip is write-only
		"vfs.write=drop",        // drop is rename-only
		"vfs.write=eio*0",       // times must be >= 1
		"vfs.write=eio*x",       // non-numeric
		"vfs.write=eio@-1",      // negative skip
		"some.point=vaporize",   // unknown failpoint mode
		"some.point=crash",      // file faults are vfs items, not failpoints
		"some.point=bitflip@-3", // likewise
		"=eio",                  // empty name
		"vfs.write=eio@1@2*bad", // trailing garbage
	}
	for _, spec := range bad {
		if _, err := ParseSchedule(spec); err == nil {
			t.Errorf("ParseSchedule(%q) succeeded, want error", spec)
		}
	}
}

func TestGenerateScheduleDeterministicAndValid(t *testing.T) {
	for index := 0; index < 40; index++ {
		a := GenerateSchedule(7, index)
		b := GenerateSchedule(7, index)
		if a.Workload != b.Workload || a.String() != b.String() {
			t.Fatalf("GenerateSchedule(7,%d) not deterministic: %q vs %q", index, a.String(), b.String())
		}
		if a.String() == "" {
			t.Fatalf("GenerateSchedule(7,%d) produced an empty schedule", index)
		}
		// Every generated schedule must survive its own grammar.
		reparsed, err := ParseSchedule(a.String())
		if err != nil {
			t.Fatalf("generated schedule %q does not re-parse: %v", a.String(), err)
		}
		if reparsed.String() != a.String() {
			t.Fatalf("generated schedule %q not canonical (reparse gives %q)", a.String(), reparsed.String())
		}
		for _, r := range a.Rules {
			if err := r.Validate(); err != nil {
				t.Fatalf("generated invalid rule %+v: %v", r, err)
			}
		}
	}
	// Different seeds must not generate the same campaign.
	if GenerateSchedule(1, 0).String() == GenerateSchedule(2, 0).String() &&
		GenerateSchedule(1, 1).String() == GenerateSchedule(2, 1).String() &&
		GenerateSchedule(1, 2).String() == GenerateSchedule(2, 2).String() {
		t.Fatal("seeds 1 and 2 generated identical schedules at indices 0..2")
	}
}

func TestCampaignAllInvariantsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is seconds-long; skipped in -short")
	}
	rep, err := Run(Options{Seed: 1, Count: 12, ScratchDir: t.TempDir()})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Ran != 12 {
		t.Fatalf("ran %d schedules, want 12", rep.Ran)
	}
	if rep.Failed() {
		for _, s := range rep.Schedules {
			for _, v := range s.Violations {
				t.Errorf("schedule %d [%s] %s: %s: %s", s.Index, s.Workload, s.Spec, v.Invariant, v.Detail)
			}
		}
		t.Fatal("campaign found invariant violations in healthy code")
	}
	// The campaign must actually have injected faults — a fault-free
	// campaign proves nothing.
	total := 0
	for _, s := range rep.Schedules {
		total += s.VFSFaults
	}
	if total == 0 && rep.Metrics.Counters["chaos.crashes"] == 0 {
		t.Fatal("12 schedules fired zero faults — the campaign is not exercising anything")
	}
	if rep.Metrics.Counters["chaos.schedules_run"] != 12 {
		t.Fatalf("metrics counted %d schedules, want 12", rep.Metrics.Counters["chaos.schedules_run"])
	}
}

func TestCampaignDistinctSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is seconds-long; skipped in -short")
	}
	rep, err := Run(Options{Seed: 3, Count: 10, ScratchDir: t.TempDir(), Workloads: []string{"store", "checkpoint"}})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range rep.Schedules {
		key := s.Workload + "|" + s.Spec
		if seen[key] {
			t.Fatalf("duplicate schedule ran: %s", key)
		}
		seen[key] = true
		if s.Workload != "store" && s.Workload != "checkpoint" {
			t.Fatalf("workload filter leaked: got %s", s.Workload)
		}
	}
}

// findSabotageIndex locates a schedule whose store workload suffers
// silent corruption that still commits — the scenario the Unverified
// sabotage turns into a visible violation.
func findSabotageIndex(t *testing.T, seed int64) int {
	t.Helper()
	for index := 0; index < 2000; index++ {
		s := GenerateSchedule(seed, index)
		// The schedule's ONLY faults must be lying writes (short or flip)
		// on the artifact's one write: any other fault could block the
		// commit, leaving nothing corrupt on disk.
		if s.Workload != "store" || len(s.Failpoints) != 0 || len(s.Rules) == 0 {
			continue
		}
		ok := true
		for _, r := range s.Rules {
			if r.Op != vfs.OpWrite || r.Skip != 0 ||
				(r.Kind != vfs.FaultShortWrite && r.Kind != vfs.FaultFlip) {
				ok = false
			}
		}
		if ok {
			return index
		}
	}
	t.Fatal("no store schedule whose sole fault is a short or flipped write in the first 2000 indices")
	return -1
}

func TestCampaignCatchesInjectedViolationAndReplaysDeterministically(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is seconds-long; skipped in -short")
	}
	const seed = int64(1)
	index := findSabotageIndex(t, seed)

	// Sanity: with verification ON, the same schedule passes — the store
	// quarantines the corruption.
	clean, err := Replay(Options{Seed: seed, ScratchDir: t.TempDir()}, index)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Violations) != 0 {
		t.Fatalf("schedule %d violates invariants even with verification on: %+v", index, clean.Violations)
	}

	// Sabotage: bypass verification (a disabled quarantine layer). The
	// campaign must catch the corruption it previously absorbed.
	first, err := Replay(Options{Seed: seed, ScratchDir: t.TempDir(), Unverified: true}, index)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range first.Violations {
		if v.Invariant == "unverified-read-corruption" {
			found = true
		}
	}
	if !found {
		t.Fatalf("sabotaged schedule %d (spec %s) reported no corruption violation: %+v",
			index, first.Spec, first.Violations)
	}

	// The failing schedule replays deterministically from (seed, index):
	// same spec, same violations.
	second, err := Replay(Options{Seed: seed, ScratchDir: t.TempDir(), Unverified: true}, index)
	if err != nil {
		t.Fatal(err)
	}
	if first.Spec != second.Spec || !reflect.DeepEqual(first.Violations, second.Violations) {
		t.Fatalf("replay diverged:\n  first : %s %+v\n  second: %s %+v",
			first.Spec, first.Violations, second.Spec, second.Violations)
	}
}

func TestWriteReportAtomicJSON(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "manifest.json")
	rep := &Report{Seed: 9, Ran: 1, Schedules: []ScheduleResult{{Index: 0, Workload: "store", Spec: "vfs.write=eio"}}}
	if err := WriteReport(path, rep); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if back.Seed != 9 || len(back.Schedules) != 1 || back.Schedules[0].Spec != "vfs.write=eio" {
		t.Fatalf("round trip = %+v", back)
	}
	if !strings.Contains(string(data), "\n  ") {
		t.Error("manifest should be indented for humans")
	}
}

func TestWorkloadByNameRejectsUnknown(t *testing.T) {
	if _, err := workloadByName("poke"); err == nil {
		t.Fatal("unknown workload accepted")
	}
	for _, w := range Workloads() {
		if _, err := workloadByName(w); err != nil {
			t.Fatalf("listed workload %q rejected: %v", w, err)
		}
	}
}

func TestEnvRestartSwitchesToCleanFS(t *testing.T) {
	fault, err := vfs.NewFaultFS(vfs.OS{}, []vfs.Rule{{Op: vfs.OpWrite, Kind: vfs.FaultEIO}})
	if err != nil {
		t.Fatal(err)
	}
	disarmed := false
	e := &Env{Dir: t.TempDir(), fault: fault, disarm: func() { disarmed = true }}
	if e.FS() != vfs.FS(fault) {
		t.Fatal("pre-restart FS is not the fault FS")
	}
	e.Restart()
	if !disarmed {
		t.Fatal("Restart did not disarm failpoints")
	}
	if _, ok := e.FS().(vfs.OS); !ok {
		t.Fatalf("post-restart FS = %T, want vfs.OS", e.FS())
	}
	e.Restart() // idempotent
}
