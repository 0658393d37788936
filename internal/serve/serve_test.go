package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"graphlocality/internal/gen"
	"graphlocality/internal/obs"
	"graphlocality/internal/runctl"
)

// NOTE: several tests in this package arm process-global runctl
// failpoints, so no test here may use t.Parallel.

// newTestServer starts a Server plus an httptest front end. The returned
// server uses small limits suited to the 1-core CI box.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.DefaultDeadline == 0 {
		cfg.DefaultDeadline = 10 * time.Second
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postJob POSTs body to /v1/jobs and returns the status code and decoded
// response body.
func postJob(t *testing.T, ts *httptest.Server, body string) (int, JobStatus) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("decoding response %q: %v", data, err)
	}
	return resp.StatusCode, st
}

func TestAPISyncMetricsJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, st := postJob(t, ts, `{"kind":"metrics","graph":{"kind":"er","scale":8}}`)
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	if st.State != StateDone {
		t.Fatalf("state = %s, want done (error: %s)", st.State, st.Error)
	}
	if st.Result == nil || st.Result.Vertices != 256 {
		t.Fatalf("result = %+v, want 256 vertices", st.Result)
	}
	if st.Result.MeanAID <= 0 {
		t.Fatalf("MeanAID = %v, want > 0", st.Result.MeanAID)
	}
	if st.Tenant != "anon" {
		t.Fatalf("tenant = %q, want default anon", st.Tenant)
	}
}

func TestAPISyncReorderJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, st := postJob(t, ts, `{"kind":"reorder","alg":"dbg","graph":{"kind":"social","scale":9},"tenant":"t1"}`)
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (error: %s)", code, st.Error)
	}
	if st.Result == nil || st.Result.Algorithm == "" {
		t.Fatalf("result = %+v, want algorithm name", st.Result)
	}
	if st.Result.PermCRC32C == 0 {
		t.Fatalf("PermCRC32C = 0, want a nonzero permutation fingerprint")
	}
}

func TestAPISimulateJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, st := postJob(t, ts, `{"kind":"simulate","graph":{"kind":"er","scale":8},"direction":"push"}`)
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (error: %s)", code, st.Error)
	}
	if st.Result == nil || st.Result.Accesses == 0 {
		t.Fatalf("result = %+v, want nonzero simulated accesses", st.Result)
	}
}

func TestAPIBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
	}{
		{"empty", ``},
		{"not json", `not json at all`},
		{"wrong type", `{"kind":42}`},
		{"unknown field", `{"kind":"metrics","graph":{"kind":"er","scale":8},"bogus":1}`},
		{"missing kind", `{"graph":{"kind":"er","scale":8}}`},
		{"unknown kind", `{"kind":"mine","graph":{"kind":"er","scale":8}}`},
		{"missing graph kind", `{"kind":"metrics","graph":{"scale":8}}`},
		{"scale too big", `{"kind":"metrics","graph":{"kind":"er","scale":30}}`},
		{"scale zero", `{"kind":"metrics","graph":{"kind":"er","scale":0}}`},
		{"bad alg", `{"kind":"reorder","alg":"nope","graph":{"kind":"er","scale":8}}`},
		{"reorder without alg", `{"kind":"reorder","graph":{"kind":"er","scale":8}}`},
		{"metrics with alg", `{"kind":"metrics","alg":"dbg","graph":{"kind":"er","scale":8}}`},
		{"bad direction", `{"kind":"simulate","graph":{"kind":"er","scale":8},"direction":"sideways"}`},
		{"direction on metrics", `{"kind":"metrics","graph":{"kind":"er","scale":8},"direction":"pull"}`},
		{"bad tenant", `{"kind":"metrics","graph":{"kind":"er","scale":8},"tenant":"a b"}`},
		{"negative deadline", `{"kind":"metrics","graph":{"kind":"er","scale":8},"deadline_ms":-1}`},
		{"deadline over cap", `{"kind":"metrics","graph":{"kind":"er","scale":8},"deadline_ms":99999999}`},
		{"trailing garbage", `{"kind":"metrics","graph":{"kind":"er","scale":8}} {"again":true}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", tc.name, resp.StatusCode, data)
		}
		var eb errorBody
		if err := json.Unmarshal(data, &eb); err != nil || eb.Code != "invalid" {
			t.Errorf("%s: error body = %s, want code invalid", tc.name, data)
		}
	}
}

func TestAPIOversizedBodyRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	big := `{"kind":"metrics","tenant":"` + strings.Repeat("x", MaxRequestBytes) + `"}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body: status = %d, want 400", resp.StatusCode)
	}
}

func TestAPIAsyncJobAndPolling(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, st := postJob(t, ts, `{"kind":"metrics","graph":{"kind":"er","scale":8},"async":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("async submit status = %d, want 202", code)
	}
	if st.ID == "" {
		t.Fatal("async submit returned no job id")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var cur JobStatus
		if err := json.Unmarshal(data, &cur); err != nil {
			t.Fatalf("poll decode %q: %v", data, err)
		}
		if cur.State.Terminal() {
			if cur.State != StateDone || resp.StatusCode != http.StatusOK {
				t.Fatalf("terminal poll = %d %s (error: %s), want 200 done", resp.StatusCode, cur.State, cur.Error)
			}
			if cur.Result == nil {
				t.Fatal("terminal poll has no result")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never terminal, state %s", st.ID, cur.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestAPIUnknownJob404(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

func TestAPICacheHitOnRepeat(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheDir: t.TempDir()})
	body := `{"kind":"reorder","alg":"hubsort","graph":{"kind":"social","scale":9}}`
	code, first := postJob(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("first: status = %d (error: %s)", code, first.Error)
	}
	if first.Cache != "miss" {
		t.Fatalf("first: cache = %q, want miss", first.Cache)
	}
	code, second := postJob(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("second: status = %d (error: %s)", code, second.Error)
	}
	if second.Cache != "hit" {
		t.Fatalf("second: cache = %q, want hit", second.Cache)
	}
	if first.Result.PermCRC32C != second.Result.PermCRC32C {
		t.Fatalf("cached result fingerprint %08x != computed %08x",
			second.Result.PermCRC32C, first.Result.PermCRC32C)
	}
	// A different tenant asking for the same computation hits too: the
	// artifact key covers result-determining fields only.
	code, third := postJob(t, ts, `{"kind":"reorder","alg":"hubsort","graph":{"kind":"social","scale":9},"tenant":"other"}`)
	if code != http.StatusOK || third.Cache != "hit" {
		t.Fatalf("third (other tenant): status %d cache %q, want 200 hit", code, third.Cache)
	}
	if got := s.Registry().Counter("serve.cache_hits").Value(); got != 2 {
		t.Fatalf("serve.cache_hits = %d, want 2", got)
	}
}

func TestAPILoadSheddingUnderFlood(t *testing.T) {
	// One worker, queue of one. A hanging job occupies the worker, a
	// second fills the queue, the third is shed with a clean 429.
	remove := runctl.Inject(PointJobRun, runctl.Failpoint{Mode: runctl.FailHang})
	defer remove()
	s, ts := newTestServer(t, Config{Workers: 1, QueueMax: 1})

	code, _ := postJob(t, ts, `{"kind":"metrics","graph":{"kind":"er","scale":8},"async":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", code)
	}
	// Wait for the worker to pick it up so the queue slot is free.
	waitFor(t, func() bool { return s.QueueDepth() == 0 })
	code, _ = postJob(t, ts, `{"kind":"metrics","graph":{"kind":"er","scale":8},"async":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("second submit = %d, want 202", code)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"metrics","graph":{"kind":"er","scale":8}}`))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("flooded submit = %d, want 429 (body %s)", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	} else if sec, err := strconv.Atoi(ra); err != nil || sec < retryAfterMin || sec > retryAfterMax {
		t.Fatalf("Retry-After = %q, want integer in [%d,%d]", ra, retryAfterMin, retryAfterMax)
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Code != "shed" {
		t.Fatalf("429 body = %s, want code shed", data)
	}
	if got := s.Registry().Counter("serve.jobs_shed").Value(); got != 1 {
		t.Fatalf("serve.jobs_shed = %d, want 1", got)
	}
}

func TestAPIHealthzAndVersion(t *testing.T) {
	s, ts := newTestServer(t, Config{Version: "test-1.2.3"})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/version")
	if err != nil {
		t.Fatal(err)
	}
	var v map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v["version"] != "test-1.2.3" || v["go"] == "" {
		t.Fatalf("version = %v", v)
	}

	// Draining flips healthz to 503.
	s.Close()
	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}
}

func TestAPIMetricsManifest(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code, _ := postJob(t, ts, `{"kind":"metrics","graph":{"kind":"er","scale":8}}`); code != http.StatusOK {
		t.Fatalf("job = %d, want 200", code)
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d, want 200", resp.StatusCode)
	}
	m, err := obs.DecodeManifest(data)
	if err != nil {
		t.Fatalf("metrics did not decode as an obs manifest: %v", err)
	}
	if m.Tool != "localityd" {
		t.Fatalf("manifest tool = %q, want localityd", m.Tool)
	}
	if m.Counters["serve.jobs_admitted"] != 1 || m.Counters["serve.jobs_completed"] != 1 {
		t.Fatalf("manifest counters = %v, want 1 admitted / 1 completed", m.Counters)
	}
	if _, ok := m.Gauges["serve.uptime_seconds"]; !ok {
		t.Fatalf("manifest gauges = %v, want serve.uptime_seconds", m.Gauges)
	}
}

func TestJobHistoryEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{JobHistory: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		code, st := postJob(t, ts, `{"kind":"metrics","graph":{"kind":"er","scale":7}}`)
		if code != http.StatusOK {
			t.Fatalf("job %d = %d", i, code)
		}
		ids = append(ids, st.ID)
	}
	// The oldest two are evicted; the newest two remain queryable.
	for _, id := range ids[:2] {
		if _, ok := s.Job(id); ok {
			t.Fatalf("job %s not evicted with history cap 2", id)
		}
	}
	for _, id := range ids[2:] {
		if _, ok := s.Job(id); !ok {
			t.Fatalf("job %s evicted too early", id)
		}
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestArtifactKeyCoversResultFieldsOnly(t *testing.T) {
	base := JobRequest{Kind: KindReorder, Alg: "sb++", Graph: GraphSpec{Kind: "social", Scale: 10, EdgeFactor: 8, Seed: 42}}
	same := base
	same.Tenant = "other"
	same.DeadlineMS = 99
	same.Async = true
	if base.ArtifactKey() != same.ArtifactKey() {
		t.Fatalf("scheduling fields changed the artifact key:\n%s\n%s", base.ArtifactKey(), same.ArtifactKey())
	}
	diff := base
	diff.Graph.Seed = 43
	if base.ArtifactKey() == diff.ArtifactKey() {
		t.Fatal("different seed produced the same artifact key")
	}
	if strings.ContainsAny(base.ArtifactKey(), "+/\\ ") {
		t.Fatalf("artifact key %q contains unsafe characters", base.ArtifactKey())
	}
}

// TestValidateGraphKindsMatchGen checks that requests accept exactly the
// generator kinds gen.Generate builds.
func TestValidateGraphKindsMatchGen(t *testing.T) {
	for _, kind := range append([]string{"lattice"}, gen.Kinds...) {
		req := JobRequest{Kind: KindMetrics, Graph: GraphSpec{Kind: kind, Scale: 4}}
		err := ValidateJobRequest(&req, Limits{})
		if _, genErr := gen.Generate(kind, 4, 2, 1); (err == nil) != (genErr == nil) {
			t.Errorf("kind %q: validation error %v, generator error %v", kind, err, genErr)
		}
	}
}

// TestValidateCanonicalizesAlgSpec checks that equivalent specs become the
// algorithm's Spec(), so they share one artifact key.
func TestValidateCanonicalizesAlgSpec(t *testing.T) {
	for in, want := range map[string]string{
		"ro": "ro", "rabbit": "ro", "ro:edr=0-0": "ro",
		"gorder:window=5": "go", "go:window=7": "go:window=7",
	} {
		req := JobRequest{Kind: KindReorder, Alg: in, Graph: GraphSpec{Kind: "er", Scale: 4}}
		if err := ValidateJobRequest(&req, Limits{}); err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		if req.Alg != want {
			t.Errorf("alg %q validated to %q, want %q", in, req.Alg, want)
		}
	}
}

func TestStatusCodes(t *testing.T) {
	cases := []struct {
		st   JobStatus
		want int
	}{
		{JobStatus{State: StateDone}, http.StatusOK},
		{JobStatus{State: StateCanceled, Error: "deadline exceeded"}, http.StatusGatewayTimeout},
		{JobStatus{State: StateCanceled, Error: "canceled: server draining"}, http.StatusServiceUnavailable},
		{JobStatus{State: StateFailed, Error: "boom"}, http.StatusInternalServerError},
		{JobStatus{State: StateQueued}, http.StatusOK},
	}
	for _, tc := range cases {
		if got := statusCode(tc.st); got != tc.want {
			t.Errorf("statusCode(%s %q) = %d, want %d", tc.st.State, tc.st.Error, got, tc.want)
		}
	}
}

// Sanity check: a JobStatus round-trips through JSON (the API contract).
func TestJobStatusJSONRoundTrip(t *testing.T) {
	st := JobStatus{
		ID: "job-000001", Tenant: "t", Kind: KindSimulate, State: StateDone,
		Cache: "hit", ElapsedMS: 12.5,
		Result: &JobResult{Vertices: 512, Edges: 4096, Accesses: 99, MissRate: 0.25},
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	var back JobStatus
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != st.ID || back.Result == nil || back.Result.Accesses != 99 {
		t.Fatalf("round trip = %+v", back)
	}
}

func TestRetryAfterHintBoundsAndJitter(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		hint := retryAfterHint()
		sec, err := strconv.Atoi(hint)
		if err != nil {
			t.Fatalf("retryAfterHint() = %q, not an integer: %v", hint, err)
		}
		if sec < retryAfterMin || sec > retryAfterMax {
			t.Fatalf("retryAfterHint() = %d, outside [%d,%d]", sec, retryAfterMin, retryAfterMax)
		}
		seen[hint] = true
	}
	// 500 draws over a 3-value window: a fixed hint (the retry-storm bug
	// this guards against) would show exactly one distinct value.
	if len(seen) < 2 {
		t.Fatalf("retryAfterHint produced no jitter: only %v over 500 draws", seen)
	}
}
