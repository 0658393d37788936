package serve

import (
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"graphlocality/internal/runctl"
	"graphlocality/internal/store"
	"graphlocality/internal/vfs"
)

// Chaos suite: arm runctl failpoints (stage faults) and a vfs.FaultFS
// (file faults, through Config.FS) against a live server and assert the
// graceful-degradation invariants the design promises:
//
//   - a panicking job fails typed; the process and its siblings survive
//   - a stalled job is cut at its deadline with a clean 504
//   - cache corruption degrades to recompute, never to a wrong answer
//   - a crash in the store's write path leaves the result usable
//   - a sick store trips the breaker and jobs keep completing uncached
//
// Failpoints are process-global, so none of these tests run in parallel.

func TestChaosPanicIsolatedPerJob(t *testing.T) {
	remove := runctl.Inject(PointJobRun, runctl.Failpoint{Mode: runctl.FailPanic, Times: 1, Panic: "chaos: RA exploded"})
	defer remove()
	s, ts := newTestServer(t, Config{})

	code, st := postJob(t, ts, `{"kind":"metrics","graph":{"kind":"er","scale":8}}`)
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking job = %d, want 500", code)
	}
	if st.State != StateFailed || st.Error == "" {
		t.Fatalf("panicking job state = %s %q, want failed with a typed error", st.State, st.Error)
	}
	// The panic was contained: the very next job on the same pool works.
	code, st = postJob(t, ts, `{"kind":"metrics","graph":{"kind":"er","scale":8}}`)
	if code != http.StatusOK || st.State != StateDone {
		t.Fatalf("job after panic = %d %s (error: %s), want 200 done", code, st.State, st.Error)
	}
	if got := s.Registry().Counter("serve.panics_isolated").Value(); got != 1 {
		t.Fatalf("serve.panics_isolated = %d, want 1", got)
	}
}

func TestChaosStalledJobCutAtDeadline(t *testing.T) {
	remove := runctl.Inject(PointJobRun, runctl.Failpoint{Mode: runctl.FailHang, Times: 1})
	defer remove()
	_, ts := newTestServer(t, Config{})

	start := time.Now()
	code, st := postJob(t, ts, `{"kind":"metrics","graph":{"kind":"er","scale":8},"deadline_ms":150}`)
	elapsed := time.Since(start)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("stalled job = %d (state %s, error %q), want 504", code, st.State, st.Error)
	}
	if st.State != StateCanceled || st.Error != "deadline exceeded" {
		t.Fatalf("stalled job = %s %q, want canceled/deadline exceeded", st.State, st.Error)
	}
	// "No request hangs past its deadline": generous slack for a loaded
	// CI box, but nowhere near a real hang.
	if elapsed > 5*time.Second {
		t.Fatalf("stalled job took %v to cut, deadline was 150ms", elapsed)
	}
}

func TestChaosCacheCorruptionRecomputesExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{CacheDir: dir})
	body := `{"kind":"reorder","alg":"dbg","graph":{"kind":"social","scale":9}}`

	code, first := postJob(t, ts, body)
	if code != http.StatusOK || first.Cache != "miss" {
		t.Fatalf("seed job = %d cache %q, want 200 miss", code, first.Cache)
	}
	key := JobRequest{Kind: KindReorder, Alg: "dbg", Graph: GraphSpec{Kind: "social", Scale: 9, EdgeFactor: 8, Seed: 42}}.ArtifactKey()
	path := filepath.Join(dir, key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("cached artifact %s: %v", key, err)
	}
	// Flip one bit in the payload: silent media corruption.
	data[len(data)-10] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	code, second := postJob(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("job over corrupt cache = %d (error: %s), want 200", code, second.Error)
	}
	if second.Cache != "miss" {
		t.Fatalf("job over corrupt cache = %q, want miss (recompute)", second.Cache)
	}
	if second.Result.PermCRC32C != first.Result.PermCRC32C {
		t.Fatalf("recomputed fingerprint %08x != original %08x — corruption leaked into a result",
			second.Result.PermCRC32C, first.Result.PermCRC32C)
	}
	// The evidence was quarantined and the artifact rewritten: the third
	// request is a clean hit.
	if _, err := os.Stat(path + store.CorruptSuffix); err != nil {
		t.Fatalf("no quarantined %s%s: %v", key, store.CorruptSuffix, err)
	}
	code, third := postJob(t, ts, body)
	if code != http.StatusOK || third.Cache != "hit" {
		t.Fatalf("job after recompute = %d cache %q, want 200 hit", code, third.Cache)
	}
	if got := s.Registry().Counter("serve.jobs_failed").Value(); got != 0 {
		t.Fatalf("serve.jobs_failed = %d, want 0 — corruption must never fail a request", got)
	}
}

// resultWriteSteps is one crash rule per step of the first result-cache
// write, with skips from the op sequence of one clean cache-miss job:
// the reusing GetOrCompute takes the shared lock (create #0) and misses
// (open #0), then the exclusive lock (create #1) and misses again (open
// #1), so the temp file is create #2 and the directory's open is open
// #2. With bufio the first data write lands at flush; the temp file's
// fsync is sync #0 and the directory's sync #1 — the last operation of
// the commit, so a crash there leaves the disk state of a crash after
// the commit. committed marks the steps after the rename.
var resultWriteSteps = []struct {
	name      string
	rule      vfs.Rule
	committed bool
}{
	{"create-temp", vfs.Rule{Op: vfs.OpCreate, Kind: vfs.FaultCrash, Skip: 2, Times: 1}, false},
	{"before-flush", vfs.Rule{Op: vfs.OpWrite, Kind: vfs.FaultCrash, Times: 1}, false},
	{"before-sync", vfs.Rule{Op: vfs.OpSync, Kind: vfs.FaultCrash, Times: 1}, false},
	{"before-rename", vfs.Rule{Op: vfs.OpRename, Kind: vfs.FaultCrash, Times: 1}, false},
	{"before-dirsync", vfs.Rule{Op: vfs.OpOpen, Kind: vfs.FaultCrash, Skip: 2, Times: 1}, true},
	{"after-commit", vfs.Rule{Op: vfs.OpSync, Kind: vfs.FaultCrash, Skip: 1, Times: 1}, true},
}

func TestChaosStoreWriteCrashLeavesResultUsable(t *testing.T) {
	body := `{"kind":"reorder","alg":"dbg","graph":{"kind":"social","scale":9}}`
	for _, step := range resultWriteSteps {
		t.Run(step.name, func(t *testing.T) {
			fault, err := vfs.NewFaultFS(nil, []vfs.Rule{step.rule})
			if err != nil {
				t.Fatal(err)
			}
			s, ts := newTestServer(t, Config{CacheDir: t.TempDir(), FS: fault})

			// Compute succeeds; persisting the artifact "crashes" mid-write.
			// The client still gets its result — a broken cache write is the
			// store's problem, not the request's.
			code, first := postJob(t, ts, body)
			if code != http.StatusOK || first.State != StateDone {
				t.Fatalf("job with crashing store write = %d %s (error: %s), want 200 done", code, first.State, first.Error)
			}
			if n := fault.Fired(); n != 1 {
				t.Fatalf("FaultFS fired %d times, want 1", n)
			}
			if got := s.Registry().Counter("serve.store_errors").Value(); got == 0 {
				t.Fatal("serve.store_errors = 0, want the write crash counted")
			}
			// A crash before the rename committed nothing, so the next
			// request recomputes; after the rename the result is on disk
			// and restored. Either way it must agree with the first
			// (exactly-once semantics are per-result, proven by the
			// deterministic fingerprint).
			wantCache := "miss"
			if step.committed {
				wantCache = "hit"
			}
			code, second := postJob(t, ts, body)
			if code != http.StatusOK || second.Cache != wantCache {
				t.Fatalf("job after write crash = %d cache %q, want 200 %s", code, second.Cache, wantCache)
			}
			if second.Result.PermCRC32C != first.Result.PermCRC32C {
				t.Fatalf("fingerprints diverged across a write crash: %08x vs %08x",
					first.Result.PermCRC32C, second.Result.PermCRC32C)
			}
			// And the result is committed now: the third request hits.
			code, third := postJob(t, ts, body)
			if code != http.StatusOK || third.Cache != "hit" {
				t.Fatalf("third job = %d cache %q, want 200 hit", code, third.Cache)
			}
		})
	}
}

func TestChaosSickStoreTripsBreakerAndDegrades(t *testing.T) {
	remove := runctl.Inject(PointStoreGet, runctl.Failpoint{Mode: runctl.FailError})
	s, ts := newTestServer(t, Config{
		CacheDir:         t.TempDir(),
		BreakerThreshold: 2,
		BreakerCooldown:  100 * time.Millisecond,
	})
	body := `{"kind":"metrics","graph":{"kind":"er","scale":8}}`

	// Every request completes despite the dead store tier.
	for i := 0; i < 4; i++ {
		code, st := postJob(t, ts, body)
		if code != http.StatusOK || st.State != StateDone {
			t.Fatalf("job %d with sick store = %d %s (error: %s), want 200 done", i, code, st.State, st.Error)
		}
		if st.Cache != "" && st.Cache != "miss" {
			t.Fatalf("job %d with sick store reported cache %q", i, st.Cache)
		}
	}
	if got := s.Registry().Counter("serve.store_degraded").Value(); got == 0 {
		t.Fatal("serve.store_degraded = 0, want degraded-to-direct computes counted")
	}
	// Once open, the breaker stops even *trying* the store.
	hitsWhenOpen := runctl.HitCount(PointStoreGet)
	if !s.breaker.Open() {
		t.Fatal("breaker not open after consecutive store failures")
	}
	if code, _ := postJob(t, ts, body); code != http.StatusOK {
		t.Fatal("job while breaker open did not complete")
	}
	if got := runctl.HitCount(PointStoreGet); got != hitsWhenOpen {
		t.Fatalf("store tried %d times while breaker open, want 0 (hits %d -> %d)", got-hitsWhenOpen, hitsWhenOpen, got)
	}

	// The store heals; after the cooldown one probe closes the breaker
	// and caching resumes.
	remove()
	time.Sleep(150 * time.Millisecond)
	code, st := postJob(t, ts, body)
	if code != http.StatusOK || st.Cache != "miss" {
		t.Fatalf("probe job after heal = %d cache %q, want 200 miss", code, st.Cache)
	}
	code, st = postJob(t, ts, body)
	if code != http.StatusOK || st.Cache != "hit" {
		t.Fatalf("job after breaker closed = %d cache %q, want 200 hit", code, st.Cache)
	}
}

func TestChaosTransientStoreFaultRetriedInPlace(t *testing.T) {
	remove := runctl.Inject(PointStoreGet, runctl.Failpoint{Mode: runctl.FailTransient, Times: 1})
	defer remove()
	s, ts := newTestServer(t, Config{CacheDir: t.TempDir()})

	code, st := postJob(t, ts, `{"kind":"metrics","graph":{"kind":"er","scale":8}}`)
	if code != http.StatusOK || st.State != StateDone {
		t.Fatalf("job with transient store fault = %d %s, want 200 done", code, st.State)
	}
	// The retry reached the store (2 hits) and the artifact committed, so
	// the store never degraded to direct compute.
	if got := runctl.HitCount(PointStoreGet); got != 2 {
		t.Fatalf("store attempts = %d, want 2 (fault + retry)", got)
	}
	if got := s.Registry().Counter("serve.store_degraded").Value(); got != 0 {
		t.Fatalf("serve.store_degraded = %d, want 0 — transient fault must heal in place", got)
	}
	if st.Cache != "miss" {
		t.Fatalf("cache = %q, want miss (stored through after retry)", st.Cache)
	}
}
