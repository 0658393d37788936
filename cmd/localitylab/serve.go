package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"graphlocality/internal/obs"
	"graphlocality/internal/perf"
	"graphlocality/internal/runctl"
	"graphlocality/internal/serve"
)

// failpointEnv is the environment variable holding a failpoint spec
// (see runctl.ParseSpec) armed at process startup, before any command
// runs, so stage faults can be injected into a real binary built without
// test hooks. File faults are not failpoints: they are injected through
// vfs.FaultFS by `localitylab chaos run|replay`.
const failpointEnv = "LOCALITYLAB_FAILPOINTS"

// armFailpointsFromEnv injects the LOCALITYLAB_FAILPOINTS spec, if any.
// Called once from main before dispatch; a bad spec is a usage error.
func armFailpointsFromEnv() error {
	spec := os.Getenv(failpointEnv)
	if spec == "" {
		return nil
	}
	if _, err := runctl.InjectSpec(spec); err != nil {
		return usagef("%s: %v", failpointEnv, err)
	}
	fmt.Fprintf(os.Stderr, "localitylab: failpoints armed from %s: %s\n", failpointEnv, spec)
	return nil
}

// buildVersion resolves the binary's version from embedded build info:
// the module version when built from a tagged release, otherwise the
// VCS revision, otherwise "devel".
func buildVersion() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "devel"
	}
	if v := info.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	var rev, dirty string
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		return rev + dirty
	}
	return "devel"
}

func cmdVersion(args []string) error {
	fmt.Printf("localitylab %s %s %s/%s\n", buildVersion(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	return nil
}

// cmdServe runs localityd: the fault-tolerant reorder/simulate daemon.
//
// Signal contract (tested by TestServeSignalExitCodes):
//
//	SIGINT  -> immediate cancel: in-flight jobs are canceled, exit 130.
//	SIGTERM -> graceful drain: stop admitting (503), finish in-flight
//	           jobs within -drain-timeout, exit 0.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	workers := fs.Int("workers", 0, "worker pool size (default GOMAXPROCS, min 2)")
	queueMax := fs.Int("queue", 64, "admission queue capacity before load shedding")
	cacheDir := fs.String("cachedir", "", "artifact store directory (empty: no cache, always compute)")
	defaultDeadline := fs.Duration("default-deadline", 10*time.Second, "deadline for requests that do not set one")
	maxDeadline := fs.Duration("max-deadline", 30*time.Second, "cap on client-requested deadlines")
	drainTimeout := fs.Duration("drain-timeout", 20*time.Second, "grace period for in-flight jobs on SIGTERM")
	maxScale := fs.Int("maxscale", 16, "cap on graph.scale in job requests")
	if err := fs.Parse(args); err != nil {
		return usagef("serve: %v", err)
	}
	if fs.NArg() != 0 {
		return usagef("serve: unexpected arguments %v", fs.Args())
	}

	srv := serve.New(serve.Config{
		Workers:         *workers,
		QueueMax:        *queueMax,
		DefaultDeadline: *defaultDeadline,
		Limits:          serve.Limits{MaxScale: *maxScale, MaxDeadline: *maxDeadline},
		CacheDir:        *cacheDir,
		Obs:             obs.NewRegistry(),
		Version:         buildVersion(),
	})

	// Install the handler before the listener opens: once a client can see
	// the port, a signal must hit the orderly path, never the default
	// disposition.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Close()
		return fmt.Errorf("serve: %w", err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "localitylab: serving on %s\n", ln.Addr())

	for {
		select {
		case err := <-serveErr:
			srv.Close()
			if err == http.ErrServerClosed {
				return nil
			}
			return fmt.Errorf("serve: %w", err)
		case sig := <-sigCh:
			switch sig {
			case syscall.SIGTERM:
				fmt.Fprintf(os.Stderr, "localitylab: SIGTERM, draining (up to %v)\n", *drainTimeout)
				drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
				derr := srv.Drain(drainCtx)
				// In-flight HTTP responses (sync waiters) flush during
				// Shutdown; admitted jobs are already terminal.
				_ = httpSrv.Shutdown(drainCtx)
				cancel()
				if derr != nil {
					fmt.Fprintf(os.Stderr, "localitylab: drain incomplete: %v\n", derr)
				} else {
					fmt.Fprintln(os.Stderr, "localitylab: drained cleanly")
				}
				return nil
			default: // SIGINT: immediate cancel, exit 130.
				fmt.Fprintln(os.Stderr, "localitylab: SIGINT, canceling in-flight jobs")
				srv.Close()
				_ = httpSrv.Close()
				return runctl.ErrCanceled
			}
		}
	}
}

// cmdLoadtest fires a mixed reorder/simulate/metrics workload at a
// running daemon and writes the latency/outcome profile as a perf
// report (BENCH_serve.json) that `bench diff` can gate.
func cmdLoadtest(args []string) error {
	fs := flag.NewFlagSet("loadtest", flag.ContinueOnError)
	url := fs.String("url", "http://127.0.0.1:8080", "daemon base URL")
	n := fs.Int("n", 200, "total requests")
	c := fs.Int("c", 16, "concurrent client goroutines")
	deadlineMS := fs.Int("deadline", 5000, "per-request deadline_ms")
	out := fs.String("out", "", "write perf report JSON here (e.g. BENCH_serve.json)")
	suite := fs.String("suite", "serve", "suite name stamped into the report")
	if err := fs.Parse(args); err != nil {
		return usagef("loadtest: %v", err)
	}
	if fs.NArg() != 0 {
		return usagef("loadtest: unexpected arguments %v", fs.Args())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := serve.Loadtest(ctx, serve.LoadtestOptions{
		BaseURL:     *url,
		Requests:    *n,
		Concurrency: *c,
		DeadlineMS:  *deadlineMS,
		Progress: func(done, total int) {
			fmt.Fprintf(os.Stderr, "localitylab: loadtest %d/%d\n", done, total)
		},
	})
	if err != nil {
		return err
	}
	fmt.Println(res.String())
	if res.Completed == 0 {
		return fmt.Errorf("loadtest: no request completed")
	}
	if *out != "" {
		if err := perf.WriteFile(*out, res.Report(*suite)); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "localitylab: wrote %s\n", *out)
	}
	return nil
}
