package serve

import (
	"fmt"
	"net/http"
	"testing"

	"graphlocality/internal/expt"
	"graphlocality/internal/gen"
	"graphlocality/internal/reorder"
	"graphlocality/internal/trace"
)

// TestSimulateJobMatchesSessionCell checks that a served simulate job and
// the experiments simulate the same cell: for the Tiny social dataset, an
// RA and a direction, the job's misses, writebacks and TLB misses equal
// the counters Session.Simulate gives the tables.
func TestSimulateJobMatchesSessionCell(t *testing.T) {
	ds := expt.Suite(expt.Tiny)[0]
	const kind, scale, edgeFac, seed = "social", 11, 12, 42
	s := expt.NewSession()
	g, err := gen.Generate(kind, scale, edgeFac, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Graph(ds).Equal(g) {
		t.Fatalf("%s is not the %s graph of scale %d, edge factor %d, seed %d", ds.Name, kind, scale, edgeFac, seed)
	}
	_, ts := newTestServer(t, Config{})
	for _, alg := range []string{"initial", "ro"} {
		for _, dir := range []trace.Direction{trace.Pull, trace.Push} {
			body := fmt.Sprintf(`{"kind":"simulate","alg":%q,"graph":{"kind":%q,"scale":%d,"edgefac":%d,"seed":%d},"direction":%q,"no_cache":true}`,
				alg, kind, scale, edgeFac, seed, dir)
			code, st := postJob(t, ts, body)
			if code != http.StatusOK || st.Result == nil {
				t.Fatalf("%s/%s: status %d, error %q", alg, dir, code, st.Error)
			}
			cell := s.Simulate(ds, reorder.MustNew(alg), dir)
			got := [3]uint64{st.Result.Misses, st.Result.Writebacks, st.Result.TLBMisses}
			want := [3]uint64{cell.Cache.Misses, cell.Cache.Writebacks, cell.TLB.Misses}
			if got != want || want[0] == 0 {
				t.Errorf("%s/%s: job misses, writebacks, TLB misses = %v, session cell = %v", alg, dir, got, want)
			}
		}
	}
}
