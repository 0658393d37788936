// Package serve is localityd: the reorder/simulate/metrics toolkit as a
// long-running, fault-tolerant HTTP service. The JSON API is small —
// POST /v1/jobs, GET /v1/jobs/{id}, /v1/healthz, /v1/metrics,
// /v1/version — and the substance is the robustness machinery wrapped
// around every job (see DESIGN.md §13):
//
//   - Admission control: a bounded queue with per-tenant round-robin
//     fairness. A full queue sheds the request with a clean 429 instead
//     of letting a slow-job pileup take the whole service down; one
//     tenant flooding the queue cannot starve another tenant's jobs.
//   - Deadlines everywhere: each job carries a deadline that covers
//     queue wait plus execution, threaded as a context through runctl
//     into every reorder/simulate loop. A request never hangs past its
//     deadline — it terminates with a result or a typed timeout.
//   - Panic isolation: a panicking reordering algorithm degrades that
//     one job to a typed 500, never the process (runctl stage recovery).
//   - Degradation ladder (cache → direct compute → shed): results are
//     deduplicated through the crash-safe artifact store's GetOrCompute
//     cross-process single-flight; store infrastructure failures are
//     retried with capped backoff and, past a threshold, a circuit
//     breaker routes jobs to direct compute so a corrupt or contended
//     cache degrades throughput, not correctness. Corrupt artifacts are
//     quarantined by the store and recomputed exactly once.
//   - Graceful drain: Drain stops admission (healthz flips to 503),
//     runs every already-admitted job to a terminal state — completing
//     it or, past the drain deadline, cancelling it into a typed
//     outcome — and returns. No admitted job is ever silently lost.
//
// Every fault path is provable from the outside: the chaos suite arms
// runctl failpoints (panic/stall/typed errors in jobs and store calls)
// and passes a vfs.FaultFS as Config.FS (crashes, torn writes and bit
// flips in the store's file operations) against a live server and
// asserts the invariants above.
package serve
