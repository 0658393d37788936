package chaos

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphlocality/internal/expt"
	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
	"graphlocality/internal/obs"
	"graphlocality/internal/reorder"
	"graphlocality/internal/serve"
	"graphlocality/internal/store"
	"graphlocality/internal/vfs"
)

// Violation is one broken invariant observed by a workload. A passing
// schedule has none.
type Violation struct {
	// Invariant is the stable identifier of the property that broke.
	Invariant string `json:"invariant"`
	// Detail is the human-readable evidence.
	Detail string `json:"detail"`
}

// Env is the per-schedule execution environment a workload runs in. The
// first phase sees the schedule's faulted filesystem and armed
// failpoints; Restart() simulates the process dying and coming back —
// faults disarm, and every later FS() call returns the clean OS
// filesystem over the same directory, exactly what a restarted process
// would see.
type Env struct {
	// Dir is the schedule's private scratch directory.
	Dir string
	// Unverified enables the campaign's self-test sabotage: right after
	// the restart, the store workload reads the artifact bytes raw,
	// without the store's verification layer — modelling a deliberately
	// disabled quarantine. A corruption schedule must then surface a
	// violation, proving the checker catches what verification normally
	// absorbs and repairs.
	Unverified bool

	fault     *vfs.FaultFS
	disarm    func()
	once      sync.Once
	restarted atomic.Bool
}

// FS returns the filesystem for the current phase: the schedule's
// FaultFS before Restart, the clean OS passthrough after.
func (e *Env) FS() vfs.FS {
	if e.restarted.Load() {
		return vfs.OS{}
	}
	return e.fault
}

// Restart simulates process death and recovery: failpoints disarm and
// later FS() calls are clean. Idempotent.
func (e *Env) Restart() {
	e.restarted.Store(true)
	e.once.Do(e.disarm)
}

// workloadFunc runs one workload under env and returns its violations.
type workloadFunc func(e *Env) []Violation

func workloadByName(name string) (workloadFunc, error) {
	switch name {
	case "store":
		return storeWorkload, nil
	case "race":
		return raceWorkload, nil
	case "checkpoint":
		return checkpointWorkload, nil
	case "serve":
		return serveWorkload, nil
	case "segwrite":
		return segwriteWorkload, nil
	}
	return nil, fmt.Errorf("chaos: unknown workload %q (want one of %s)", name, strings.Join(Workloads(), ", "))
}

// storePayload is the known-good artifact content every store-class
// workload writes and checks against. Big enough that short and flipped
// writes land inside the payload, small enough to be free.
func storePayload() []store.Section {
	data := make([]byte, 512)
	for i := range data {
		data[i] = byte(i * 31)
	}
	return []store.Section{
		{Name: "meta", Data: []byte(`{"kind":"chaos-probe"}`)},
		{Name: "payload", Data: data},
	}
}

func sectionsEqual(a, b []store.Section) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

// storeWorkload drives GetOrCompute through a fault phase, a simulated
// crash/restart, and a clean resume, checking:
//
//   - verified-content-only: any sections a Get returns equal the payload
//   - exactly-once recompute: a cleanly committed artifact is restored on
//     resume — or, if post-commit corruption struck, the evidence is a
//     quarantined .corrupt file, never a silent recompute
//   - bounded compute: at most one compute per process lifetime
//   - clean-restart liveness: with faults gone, the artifact is obtainable
func storeWorkload(e *Env) []Violation {
	var v []Violation
	payload := storePayload()
	var computes1, computes2 int

	committed := false
	st, err := store.Open(e.FS(), e.Dir, nil)
	if err == nil {
		res, gerr := st.GetOrCompute("probe.bin", true, nil, func() ([]store.Section, error) {
			computes1++
			return payload, nil
		})
		if gerr == nil {
			if !sectionsEqual(res.Sections, payload) {
				v = append(v, Violation{"verified-content-only",
					"phase-1 GetOrCompute returned sections that are not the computed payload"})
			}
			committed = res.WriteErr == nil
		}
	}
	if computes1 > 1 {
		v = append(v, Violation{"bounded-compute",
			fmt.Sprintf("phase 1 computed %d times in one call", computes1)})
	}

	e.Restart()

	if e.Unverified {
		// Sabotage: the restarted process reads the artifact raw, bypassing
		// the verification layer — a deliberately disabled quarantine. This
		// runs BEFORE the verified phase below, which would detect the
		// corruption, quarantine the file, and repair it by recomputing.
		// Under post-commit corruption schedules the raw bytes differ from
		// the canonical encoding and the campaign must say so.
		var want bytes.Buffer
		if err := store.WriteContainer(&want, payload); err == nil {
			if raw, err := os.ReadFile(filepath.Join(e.Dir, "probe.bin")); err == nil {
				if !bytes.Equal(raw, want.Bytes()) {
					v = append(v, Violation{"unverified-read-corruption",
						"raw artifact bytes differ from the canonical encoding (verification bypassed)"})
				}
			}
		}
	}

	reg := obs.NewRegistry()
	st2, err := store.Open(nil, e.Dir, reg)
	if err != nil {
		return append(v, Violation{"clean-restart-liveness",
			fmt.Sprintf("store.Open on the clean filesystem failed: %v", err)})
	}
	res2, err := st2.GetOrCompute("probe.bin", true, nil, func() ([]store.Section, error) {
		computes2++
		return payload, nil
	})
	if err != nil {
		v = append(v, Violation{"clean-restart-liveness",
			fmt.Sprintf("GetOrCompute on the clean filesystem failed: %v", err)})
	} else {
		if !sectionsEqual(res2.Sections, payload) {
			v = append(v, Violation{"verified-content-only",
				"restart GetOrCompute returned sections that are not the computed payload"})
		}
		if committed && !res2.Restored {
			// A clean commit that is not restored must have left quarantine
			// evidence (post-commit corruption struck); a recompute without
			// evidence means a committed artifact silently vanished or was
			// re-read unverified.
			if reg.Counter("store.quarantined").Value() == 0 {
				if _, serr := os.Stat(st2.Path("probe.bin") + store.CorruptSuffix); serr != nil {
					v = append(v, Violation{"exactly-once-recompute",
						"cleanly committed artifact was recomputed with no quarantine evidence"})
				}
			}
		}
	}
	if computes2 > 1 {
		v = append(v, Violation{"bounded-compute",
			fmt.Sprintf("restart phase computed %d times in one call", computes2)})
	}

	return v
}

// raceWorkload races two GetOrCompute callers for one artifact through
// the fault phase, then resumes clean, checking single-flight stays
// bounded and every returned result is verified content.
func raceWorkload(e *Env) []Violation {
	var v []Violation
	payload := storePayload()
	var computes int32

	var mu sync.Mutex
	appendViolation := func(inv, detail string) {
		mu.Lock()
		v = append(v, Violation{inv, detail})
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			// Each racer opens its own Store handle — separate lock handles,
			// like two processes sharing the directory.
			st, err := store.Open(e.FS(), e.Dir, nil)
			if err != nil {
				return // a faulted open is a legal outcome, not a violation
			}
			res, err := st.GetOrCompute("probe.bin", true, nil, func() ([]store.Section, error) {
				atomic.AddInt32(&computes, 1)
				return payload, nil
			})
			if err == nil && !sectionsEqual(res.Sections, payload) {
				appendViolation("verified-content-only",
					fmt.Sprintf("racer %d got sections that are not the computed payload", worker))
			}
		}(i)
	}
	wg.Wait()
	if n := atomic.LoadInt32(&computes); n > 2 {
		v = append(v, Violation{"bounded-compute",
			fmt.Sprintf("two racers computed %d times, want <= 2", n)})
	}

	e.Restart()
	st, err := store.Open(nil, e.Dir, nil)
	if err != nil {
		return append(v, Violation{"clean-restart-liveness", err.Error()})
	}
	res, err := st.GetOrCompute("probe.bin", true, nil, func() ([]store.Section, error) {
		return payload, nil
	})
	if err != nil {
		v = append(v, Violation{"clean-restart-liveness",
			fmt.Sprintf("clean GetOrCompute after race failed: %v", err)})
	} else if !sectionsEqual(res.Sections, payload) {
		v = append(v, Violation{"verified-content-only",
			"clean read after race returned sections that are not the payload"})
	}
	return v
}

// checkpointPerm is the fixed, deliberately non-trivial permutation the
// checkpoint workload saves (a reversal: every index moves).
func checkpointPerm(n uint32) graph.Permutation {
	perm := make(graph.Permutation, n)
	for i := range perm {
		perm[i] = n - 1 - uint32(i)
	}
	return perm
}

// checkpointWorkload saves a permutation checkpoint under faults,
// restarts, and resumes, checking the resume-correctness contract:
// a load either yields the exact saved permutation or a typed miss
// (not-exist after lost commits, *store.IntegrityError after
// quarantined corruption) — never a wrong or partial permutation.
func checkpointWorkload(e *Env) []Violation {
	var v []Violation
	const n = uint32(64)
	saved := reorder.Result{
		Algorithm: "GO",
		Perm:      checkpointPerm(n),
		Elapsed:   1234 * time.Microsecond,
	}
	_ = expt.SavePermCheckpoint(e.FS(), e.Dir, "chaosDS", "GO", saved) // failure is a legal outcome

	e.Restart()

	got, err := expt.LoadPermCheckpoint(nil, e.Dir, "chaosDS", "GO", n)
	switch {
	case err == nil:
		if len(got.Perm) != len(saved.Perm) {
			return append(v, Violation{"exact-checkpoint-restore",
				fmt.Sprintf("restored perm has %d entries, want %d", len(got.Perm), len(saved.Perm))})
		}
		for i := range got.Perm {
			if got.Perm[i] != saved.Perm[i] {
				return append(v, Violation{"exact-checkpoint-restore",
					fmt.Sprintf("restored perm differs at index %d", i)})
			}
		}
	case os.IsNotExist(err):
		// A lost commit (crash before rename, dropped rename): typed miss.
	default:
		var ie *store.IntegrityError
		if !errors.As(err, &ie) {
			v = append(v, Violation{"typed-checkpoint-miss",
				fmt.Sprintf("load failed with untyped error %v — partial data escaped verification", err)})
		}
	}

	// Resume must always be able to move forward: save again on the clean
	// filesystem and load it back exactly.
	if err := expt.SavePermCheckpoint(nil, e.Dir, "chaosDS", "GO", saved); err != nil {
		return append(v, Violation{"clean-restart-liveness",
			fmt.Sprintf("clean checkpoint save failed: %v", err)})
	}
	got, err = expt.LoadPermCheckpoint(nil, e.Dir, "chaosDS", "GO", n)
	if err != nil {
		return append(v, Violation{"clean-restart-liveness",
			fmt.Sprintf("clean checkpoint load failed: %v", err)})
	}
	for i := range got.Perm {
		if got.Perm[i] != saved.Perm[i] {
			return append(v, Violation{"exact-checkpoint-restore",
				fmt.Sprintf("clean-phase perm differs at index %d", i)})
		}
	}
	return v
}

// segStreamDiff streams every row of sg in one direction and compares
// offsets and adjacency against the in-RAM graph it was written from.
// It returns a non-empty detail string on content divergence, or the
// latched decode error if streaming failed; ("", nil) means the
// direction decodes to exactly the original CSR.
func segStreamDiff(sg *graph.SegGraph, g *graph.Graph, in bool) (string, error) {
	wantOff, wantAdj := g.OutOffsets(), g.OutEdges()
	if in {
		wantOff, wantAdj = g.InOffsets(), g.InEdges()
	}
	dir := "out"
	if in {
		dir = "in"
	}
	var rows uint32
	cur := sg.Rows(in, 0, g.NumVertices())
	for {
		base, off, adj, ok := cur.Next()
		if !ok {
			break
		}
		rows += uint32(len(off) - 1)
		for i, o := range off {
			if o != wantOff[int(base)+i] {
				return fmt.Sprintf("%s offset[%d] = %d, want %d", dir, int(base)+i, o, wantOff[int(base)+i]), nil
			}
		}
		want := wantAdj[off[0]:off[len(off)-1]]
		if len(adj) != len(want) {
			return fmt.Sprintf("%s span at vertex %d has %d edges, want %d", dir, base, len(adj), len(want)), nil
		}
		for i := range adj {
			if adj[i] != want[i] {
				return fmt.Sprintf("%s edge %d of vertex span %d = %d, want %d", dir, i, base, adj[i], want[i]), nil
			}
		}
	}
	if err := sg.Err(); err != nil {
		return "", err
	}
	if rows != g.NumVertices() {
		return fmt.Sprintf("%s stream covered %d vertices, want %d", dir, rows, g.NumVertices()), nil
	}
	return "", nil
}

// segwriteOutcome classifies the outcome of reopening a segmented
// container after a faulted write: legal outcomes are a bit-exact graph,
// a typed not-exist miss (lost commit), or detected corruption — a typed
// quarantine at open or a typed *store.IntegrityError from the
// per-segment CRC while streaming. Silently wrong edges or an untyped
// failure break the contract.
func segwriteOutcome(path string, g *graph.Graph) []Violation {
	sg, err := graph.OpenSegmented(path, graph.SegmentedOptions{})
	switch {
	case err == nil:
		defer sg.Close()
		if sg.NumVertices() != g.NumVertices() || sg.NumEdges() != g.NumEdges() {
			return []Violation{{"atomic-segmented-commit",
				fmt.Sprintf("reopened container has %d vertices / %d edges, want %d / %d",
					sg.NumVertices(), sg.NumEdges(), g.NumVertices(), g.NumEdges())}}
		}
		for _, in := range []bool{false, true} {
			detail, serr := segStreamDiff(sg, g, in)
			if serr != nil {
				var ie *store.IntegrityError
				if !errors.As(serr, &ie) {
					return []Violation{{"typed-segmented-miss",
						fmt.Sprintf("segment decode failed with untyped error: %v", serr)}}
				}
				return nil // per-segment CRC caught the corruption: detected, typed
			}
			if detail != "" {
				return []Violation{{"atomic-segmented-commit",
					"reopened container decodes to a different graph: " + detail}}
			}
		}
		return nil
	case os.IsNotExist(err):
		return nil // lost commit: typed miss, nothing half-readable on disk
	default:
		var ie *store.IntegrityError
		if !errors.As(err, &ie) {
			return []Violation{{"typed-segmented-miss",
				fmt.Sprintf("open failed with untyped error: %v", err)}}
		}
		var v []Violation
		if ie.Quarantined == "" {
			v = append(v, Violation{"quarantine-on-corruption",
				fmt.Sprintf("open detected corruption but did not quarantine: %v", ie)})
		}
		if _, serr := os.Stat(path); serr == nil {
			v = append(v, Violation{"quarantine-on-corruption",
				"corrupt container still sits under its original path after quarantine"})
		}
		return v
	}
}

// segwriteWorkload writes a graph's segmented compressed container
// (graph.WriteSegmented) through the faulted filesystem, restarts, and
// reopens, checking the out-of-core atomicity contract: the path holds
// either a container that decodes bit-exactly to the written graph, or
// nothing (typed not-exist after a lost commit), or corruption that the
// verification layers catch and type — never a half-readable graph and
// never an untyped failure. A clean restart must then be able to write
// and reopen exactly.
func segwriteWorkload(e *Env) []Violation {
	var v []Violation
	g := gen.SocialNetwork(6, 4, 7)
	path := filepath.Join(e.Dir, "graph.segcsr")
	// Small segments so faults land inside the segment machinery, not
	// just the container header. A failed (or crashed) write is a legal
	// outcome — the contract is about what it left on disk, checked after
	// the restart.
	_, _ = graph.WriteSegmented(g, path, graph.SegmentedOptions{SegmentVertices: 16, FS: e.FS()})

	e.Restart()

	v = append(v, segwriteOutcome(path, g)...)

	// Clean-restart liveness: with faults gone the write must commit and
	// reopen bit-exactly.
	if _, err := graph.WriteSegmented(g, path, graph.SegmentedOptions{SegmentVertices: 16}); err != nil {
		return append(v, Violation{"clean-restart-liveness",
			fmt.Sprintf("clean WriteSegmented failed: %v", err)})
	}
	if cv := segwriteOutcome(path, g); len(cv) > 0 {
		for _, c := range cv {
			v = append(v, Violation{"clean-restart-liveness", c.Invariant + ": " + c.Detail})
		}
	}
	return v
}

// serveWorkload submits the same reorder job repeatedly to a live server
// whose result cache sits on the faulted filesystem, restarts the daemon
// clean, and replays the job, checking:
//
//   - replay-determinism: every completed run of the job reports the same
//     permutation fingerprint, across faults, restarts and cache states
//   - ledger-balance: admitted == completed + failed + canceled once all
//     submissions returned
//   - clean-restart-liveness: the restarted daemon completes the job
func serveWorkload(e *Env) []Violation {
	var v []Violation
	const body = `{"kind":"reorder","alg":"dbg","graph":{"kind":"social","scale":6},"deadline_ms":30000}`

	var fingerprints []uint32
	runPhase := func(fsys vfs.FS, submissions int, phase string) *serve.Server {
		s := serve.New(serve.Config{Workers: 2, CacheDir: e.Dir, FS: fsys})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		for i := 0; i < submissions; i++ {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				v = append(v, Violation{"clean-restart-liveness",
					fmt.Sprintf("%s submit %d: transport error %v", phase, i, err)})
				continue
			}
			var st serve.JobStatus
			derr := json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if derr != nil {
				v = append(v, Violation{"clean-restart-liveness",
					fmt.Sprintf("%s submit %d: undecodable response: %v", phase, i, derr)})
				continue
			}
			if st.State == serve.StateDone && st.Result != nil {
				fingerprints = append(fingerprints, st.Result.PermCRC32C)
			}
		}
		return s
	}

	s1 := runPhase(e.FS(), 3, "fault-phase")
	// Ledger balance: every admission reached exactly one terminal state.
	// Sync submissions return at terminal, so the books must already add
	// up (modulo the counter-vs-response write race, absorbed by waiting).
	checkLedger := func(s *serve.Server, phase string) {
		reg := s.Registry()
		deadline := time.Now().Add(5 * time.Second)
		for {
			admitted := reg.Counter("serve.jobs_admitted").Value()
			settled := reg.Counter("serve.jobs_completed").Value() +
				reg.Counter("serve.jobs_failed").Value() +
				reg.Counter("serve.jobs_canceled").Value()
			if admitted == settled {
				return
			}
			if time.Now().After(deadline) {
				v = append(v, Violation{"ledger-balance",
					fmt.Sprintf("%s: admitted=%d but completed+failed+canceled=%d", phase, admitted, settled)})
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	checkLedger(s1, "fault-phase")
	s1.Close()

	e.Restart()
	phase1Done := len(fingerprints)
	s2 := runPhase(nil, 1, "restart-phase")
	checkLedger(s2, "restart-phase")
	s2.Close()
	if len(fingerprints) == phase1Done {
		v = append(v, Violation{"clean-restart-liveness",
			"restarted daemon did not complete the replayed job"})
	}
	for i := 1; i < len(fingerprints); i++ {
		if fingerprints[i] != fingerprints[0] {
			v = append(v, Violation{"replay-determinism",
				fmt.Sprintf("completed run %d fingerprint %08x != run 0 fingerprint %08x",
					i, fingerprints[i], fingerprints[0])})
		}
	}
	return v
}
