// Package chaos is the systematic fault-campaign engine: it enumerates
// deterministic fault schedules — file faults injected by vfs.FaultFS
// (crashes, ENOSPC, EIO, short writes, bit flips, sync-then-crash,
// rename-drop), plus, for the serve workload, runctl stage failpoints
// (typed job and store errors) — runs a workload under each schedule
// in-process with crash/restart simulation, and checks
// machine-verifiable invariants after every run: verified content only,
// exactly-once recompute (quarantine-or-restore), valid permutation
// checkpoints, serve's ledger balance, and atomic segmented graph
// commits (valid, missing or quarantined — never half-readable). Every
// schedule is a pure function of (seed, index), so a failing schedule
// replays exactly from the two numbers the campaign prints.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"graphlocality/internal/runctl"
	"graphlocality/internal/serve"
	"graphlocality/internal/vfs"
)

// Workloads lists the campaign's workload names in generation rotation
// order: "store" (GetOrCompute write/read/restart), "race" (concurrent
// GetOrCompute single-flight), "checkpoint" (perm checkpoint save →
// restart → resume), "serve" (job submit/replay over the result cache),
// "segwrite" (segmented compressed-CSR write → restart → verified
// reopen).
func Workloads() []string {
	return []string{"store", "race", "checkpoint", "serve", "segwrite"}
}

// NamedFailpoint pairs a runctl failpoint with its registry name.
type NamedFailpoint struct {
	Name string
	FP   runctl.Failpoint
}

// Schedule is one fault scenario: the vfs fault rules and runctl
// failpoints to arm, plus the workload to run under them.
type Schedule struct {
	// Workload names the workload (one of Workloads()).
	Workload string
	// Rules are vfs-layer faults, applied in order (vfs.Rule semantics).
	Rules []vfs.Rule
	// Failpoints are runctl-layer faults armed for the schedule's run.
	Failpoints []NamedFailpoint
}

// String renders the schedule's faults in the canonical grammar: every
// item rendered, sorted, comma-joined. Two schedules with the same
// canonical string arm identical faults, which is what the campaign's
// distinctness guarantee counts.
func (s Schedule) String() string {
	items := make([]string, 0, len(s.Rules)+len(s.Failpoints))
	for _, r := range s.Rules {
		items = append(items, r.String())
	}
	for _, nf := range s.Failpoints {
		items = append(items, renderFailpoint(nf.Name, nf.FP))
	}
	sort.Strings(items)
	return strings.Join(items, ",")
}

var failModeNames = map[runctl.FailMode]string{
	runctl.FailPanic:     "panic",
	runctl.FailError:     "error",
	runctl.FailTransient: "transient",
	runctl.FailHang:      "hang",
}

// renderFailpoint writes one failpoint back in runctl.ParseSpec grammar
// (name=mode[*times][~duration]).
func renderFailpoint(name string, fp runctl.Failpoint) string {
	s := name + "=" + failModeNames[fp.Mode]
	if fp.Times > 0 {
		s += "*" + strconv.Itoa(fp.Times)
	}
	if fp.HangFor > 0 {
		s += "~" + fp.HangFor.String()
	}
	return s
}

// ParseSchedule parses a fault list in the campaign grammar, which
// extends runctl.ParseSpec with vfs-layer items:
//
//	item        := vfsItem | failpointItem
//	vfsItem     := "vfs." op "=" kind ["*" times] ["@" skip]
//	op          := open|create|read|write|sync|rename|remove|readdir|mkdir
//	kind        := enospc|eio|short|crash|drop|flip
//	failpointItem is exactly one runctl.ParseSpec arm directive
//	              (name=mode[*times][~duration])
//
// Items are comma-separated. The schedule's workload is not part of the
// grammar — Run/Replay choose it from the schedule index.
func ParseSchedule(spec string) (Schedule, error) {
	var s Schedule
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		if strings.HasPrefix(item, "vfs.") {
			rule, err := parseRule(item)
			if err != nil {
				return Schedule{}, err
			}
			s.Rules = append(s.Rules, rule)
			continue
		}
		fps, err := runctl.ParseSpec(item)
		if err != nil {
			return Schedule{}, err
		}
		for name, fp := range fps { // single item: at most one entry
			s.Failpoints = append(s.Failpoints, NamedFailpoint{Name: name, FP: fp})
		}
	}
	sort.Slice(s.Failpoints, func(i, j int) bool {
		a, b := s.Failpoints[i], s.Failpoints[j]
		return renderFailpoint(a.Name, a.FP) < renderFailpoint(b.Name, b.FP)
	})
	return s, nil
}

// parseRule parses one "vfs.<op>=<kind>[*times][@skip]" item.
func parseRule(item string) (vfs.Rule, error) {
	body := strings.TrimPrefix(item, "vfs.")
	opStr, rest, ok := strings.Cut(body, "=")
	if !ok || opStr == "" || rest == "" {
		return vfs.Rule{}, fmt.Errorf("chaos: vfs item %q: want vfs.<op>=<kind>[*times][@skip]", item)
	}
	op, err := vfs.ParseOp(strings.TrimSpace(opStr))
	if err != nil {
		return vfs.Rule{}, fmt.Errorf("chaos: vfs item %q: %w", item, err)
	}
	kindStr := rest
	for _, sep := range []string{"*", "@"} {
		if i := strings.IndexAny(kindStr, sep); i >= 0 {
			kindStr = kindStr[:i]
		}
	}
	kind, err := vfs.ParseFaultKind(kindStr)
	if err != nil {
		return vfs.Rule{}, fmt.Errorf("chaos: vfs item %q: %w", item, err)
	}
	rule := vfs.Rule{Op: op, Kind: kind}
	decor := rest[len(kindStr):]
	for decor != "" {
		sep := decor[0]
		val := decor[1:]
		for _, s := range []string{"*", "@"} {
			if i := strings.IndexAny(val, s); i >= 0 {
				val = val[:i]
			}
		}
		decor = decor[1+len(val):]
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return vfs.Rule{}, fmt.Errorf("chaos: vfs item %q: bad %c-value %q", item, sep, val)
		}
		switch sep {
		case '*':
			if n < 1 {
				return vfs.Rule{}, fmt.Errorf("chaos: vfs item %q: times must be >= 1", item)
			}
			rule.Times = n
		case '@':
			rule.Skip = n
		default:
			return vfs.Rule{}, fmt.Errorf("chaos: vfs item %q: unknown decoration %q", item, string(sep))
		}
	}
	if err := rule.Validate(); err != nil {
		return vfs.Rule{}, fmt.Errorf("chaos: vfs item %q: %w", item, err)
	}
	return rule, nil
}

// candidate is one entry of the fault pool the generator draws from.
type candidate struct {
	rule *vfs.Rule
	name string
	fp   *runctl.Failpoint
}

// GenerateSchedule derives schedule index of a seeded campaign: a pure
// function of (seed, index), so any schedule replays exactly from the
// two numbers. The workload rotates through Workloads() by index; the
// faults are drawn from a pool of vfs rules (every kind/op combination
// that models a real disk failure, crashes and silent corruption
// included) and — for the serve workload — runctl failpoints raising
// typed job/store errors.
func GenerateSchedule(seed int64, index int) Schedule {
	rng := rand.New(rand.NewSource(seed ^ (int64(index)+1)*0x5851F42D4C957F2D))
	wls := Workloads()
	s := Schedule{Workload: wls[index%len(wls)]}

	var pool []candidate
	for _, rc := range []vfs.Rule{
		{Op: vfs.OpCreate, Kind: vfs.FaultENOSPC},
		{Op: vfs.OpCreate, Kind: vfs.FaultEIO},
		{Op: vfs.OpWrite, Kind: vfs.FaultENOSPC},
		{Op: vfs.OpWrite, Kind: vfs.FaultEIO},
		{Op: vfs.OpWrite, Kind: vfs.FaultShortWrite},
		{Op: vfs.OpWrite, Kind: vfs.FaultFlip},
		{Op: vfs.OpWrite, Kind: vfs.FaultCrash},
		{Op: vfs.OpSync, Kind: vfs.FaultCrash},
		{Op: vfs.OpSync, Kind: vfs.FaultEIO},
		{Op: vfs.OpRename, Kind: vfs.FaultRenameDrop},
		{Op: vfs.OpRename, Kind: vfs.FaultEIO},
		{Op: vfs.OpRead, Kind: vfs.FaultEIO},
		{Op: vfs.OpOpen, Kind: vfs.FaultEIO},
	} {
		r := rc
		pool = append(pool, candidate{rule: &r})
	}
	if s.Workload == "serve" {
		pool = append(pool,
			candidate{name: serve.PointJobRun, fp: &runctl.Failpoint{Mode: runctl.FailError, Times: 1}},
			candidate{name: serve.PointStoreGet, fp: &runctl.Failpoint{Mode: runctl.FailError, Times: 1}},
			candidate{name: serve.PointStoreGet, fp: &runctl.Failpoint{Mode: runctl.FailTransient, Times: 1}},
		)
	}

	n := 1 + rng.Intn(2)
	seen := map[string]bool{}
	for _, pi := range rng.Perm(len(pool))[:n] {
		c := pool[pi]
		if c.rule != nil {
			r := *c.rule
			r.Times = 1 + rng.Intn(2)
			r.Skip = rng.Intn(3)
			s.Rules = append(s.Rules, r)
			continue
		}
		if seen[c.name] {
			continue // one failpoint per name: arming twice would overwrite
		}
		seen[c.name] = true
		fp := *c.fp
		if fp.Mode == runctl.FailTransient {
			fp.Times = 1 + rng.Intn(2)
		}
		s.Failpoints = append(s.Failpoints, NamedFailpoint{Name: c.name, FP: fp})
	}
	return s
}
